/**
 * @file
 * Tests for the Graphviz exports (analysis/dot.h).
 */

#include <gtest/gtest.h>

#include "analysis/dot.h"
#include "frontend/lower.h"

namespace rid::analysis {
namespace {

TEST(Dot, CfgContainsBlocksAndEdges)
{
    ir::Module m = frontend::compile(
        "int f(int a) { if (a > 0) return 1; return 0; }");
    std::string dot = cfgToDot(*m.find("f"));
    EXPECT_NE(dot.find("digraph \"f\""), std::string::npos);
    EXPECT_NE(dot.find("bb0"), std::string::npos);
    EXPECT_NE(dot.find("[label=\"T\"]"), std::string::npos);
    EXPECT_NE(dot.find("[label=\"F\"]"), std::string::npos);
    EXPECT_NE(dot.find("return 1"), std::string::npos);
}

TEST(Dot, CfgEscapesQuotes)
{
    ir::Module m = frontend::compile(
        "void f(struct d *p) { log(p, \"msg\"); }\n"
        "void log(struct d *p, const char *m);");
    std::string dot = cfgToDot(*m.find("f"));
    EXPECT_EQ(dot.find("\"msg\""), std::string::npos);
}

TEST(Dot, CallGraphHasEdgesAndClusters)
{
    ir::Module m = frontend::compile(
        "void a(void) { b(); }\n"
        "void b(void) { a(); }\n"
        "void main_fn(void) { a(); }\n");
    CallGraph cg(m);
    std::string dot = callGraphToDot(cg);
    EXPECT_NE(dot.find("digraph callgraph"), std::string::npos);
    EXPECT_NE(dot.find("cluster_scc"), std::string::npos);  // a <-> b
    EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Dot, CallGraphColorsByCategory)
{
    ir::Module m = frontend::compile(
        "void api_get(struct d *p);\n"
        "void driver(struct d *p) { api_get(p); }\n"
        "void idle(void) { }\n");
    CallGraph cg(m);
    FunctionClassifier classifier(m, {"api_get"});
    std::string dot = callGraphToDot(cg, &classifier);
    EXPECT_NE(dot.find("lightcoral"), std::string::npos);
    EXPECT_NE(dot.find("lightgray"), std::string::npos);
}

} // anonymous namespace
} // namespace rid::analysis
