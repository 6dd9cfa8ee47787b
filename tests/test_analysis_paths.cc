/**
 * @file
 * Unit tests for path enumeration and the function classifier
 * (analysis/paths.h, analysis/classifier.h).
 */

#include <gtest/gtest.h>

#include "analysis/classifier.h"
#include "analysis/paths.h"
#include "core/rid.h"
#include "frontend/lower.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"

namespace rid::analysis {
namespace {

TEST(Paths, StraightLineHasOnePath)
{
    ir::Module m = frontend::compile("int f(void) { return 0; }");
    auto result = enumeratePaths(*m.find("f"), 100);
    EXPECT_EQ(result.paths.size(), 1u);
    EXPECT_FALSE(result.truncated);
}

TEST(Paths, DiamondHasTwoPaths)
{
    ir::Module m = frontend::compile(
        "int f(int a) { if (a > 0) return 1; return 0; }");
    auto result = enumeratePaths(*m.find("f"), 100);
    EXPECT_EQ(result.paths.size(), 2u);
}

class DiamondCountTest : public ::testing::TestWithParam<int>
{};

TEST_P(DiamondCountTest, IndependentDiamondsMultiply)
{
    int n = GetParam();
    std::string src = "int f(int a) { int r = 0;\n";
    for (int i = 0; i < n; i++) {
        src += "  if (a > " + std::to_string(i) + ") r = " +
               std::to_string(i) + ";\n";
    }
    src += "  return r; }";
    ir::Module m = frontend::compile(src);
    auto result = enumeratePaths(*m.find("f"), 1 << 20);
    EXPECT_EQ(result.paths.size(), static_cast<size_t>(1) << n);
}

INSTANTIATE_TEST_SUITE_P(Counts, DiamondCountTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 10));

TEST(Paths, LoopUnrolledAtMostOnce)
{
    ir::Module m = frontend::compile(
        "int f(int n) { int i = 0; while (i < n) i = i + 1; "
        "return i; }");
    auto result = enumeratePaths(*m.find("f"), 1000);
    // With the unroll-once rule the loop contributes a bounded number of
    // paths: skip the loop, or run the body once then exit.
    EXPECT_GE(result.paths.size(), 2u);
    EXPECT_LE(result.paths.size(), 4u);
    // No path may visit any block more than twice.
    for (const auto &path : result.paths) {
        std::map<ir::BlockId, int> visits;
        for (auto b : path.blocks)
            EXPECT_LE(++visits[b], 2);
    }
}

TEST(Paths, EveryPathEndsInReturnBlock)
{
    ir::Module m = frontend::compile(
        "int f(int a) { if (a) return 1; if (a > 2) return 2; "
        "return 0; }");
    const ir::Function *fn = m.find("f");
    for (const auto &path : enumeratePaths(*fn, 100).paths) {
        const auto &last = fn->block(path.blocks.back());
        EXPECT_EQ(last.terminator().op, ir::Opcode::Return);
        EXPECT_EQ(path.blocks.front(), 0);
    }
}

TEST(Paths, CapTruncates)
{
    std::string src = "int f(int a) { int r = 0;\n";
    for (int i = 0; i < 8; i++)
        src += "  if (a > " + std::to_string(i) + ") r = 1;\n";
    src += "  return r; }";
    ir::Module m = frontend::compile(src);
    auto result = enumeratePaths(*m.find("f"), 10);
    EXPECT_EQ(result.paths.size(), 10u);
    EXPECT_TRUE(result.truncated);
}

TEST(Paths, AssertFailPathsSkipped)
{
    ir::Module m = frontend::compile(
        "int f(struct d *p) { assert(p != NULL); return 0; }");
    auto result = enumeratePaths(*m.find("f"), 100);
    // Only the assertion-success path remains.
    EXPECT_EQ(result.paths.size(), 1u);
}

TEST(Classifier, SeedsAreCategoryOne)
{
    ir::Module m = frontend::compile(
        "void api_get(struct d *p);\n"
        "void driver(struct d *p) { api_get(p); }\n"
        "void helper(void) { }\n");
    FunctionClassifier classifier(m, {"api_get"});
    EXPECT_EQ(classifier.categoryOf("api_get"),
              Category::RefcountChanging);
    EXPECT_EQ(classifier.categoryOf("driver"),
              Category::RefcountChanging);
    EXPECT_EQ(classifier.categoryOf("helper"), Category::Other);
}

TEST(Classifier, TransitiveCallersAreCategoryOne)
{
    ir::Module m = frontend::compile(
        "void api_get(struct d *p);\n"
        "void low(struct d *p) { api_get(p); }\n"
        "void mid(struct d *p) { low(p); }\n"
        "void top(struct d *p) { mid(p); }\n");
    FunctionClassifier classifier(m, {"api_get"});
    EXPECT_EQ(classifier.categoryOf("top"), Category::RefcountChanging);
}

TEST(Classifier, GuardHelpersAreCategoryTwo)
{
    ir::Module m = frontend::compile(
        "void api_get(struct d *p);\n"
        "int check(int v) { if (v > 0) return 1; return 0; }\n"
        "void driver(struct d *p, int v) { if (check(v)) api_get(p); }\n"
        "int bystander(int v) { if (v > 0) return 2; return 3; }\n"
        "void user(int v) { bystander(v); }\n");
    FunctionClassifier classifier(m, {"api_get"});
    EXPECT_EQ(classifier.categoryOf("check"), Category::Affecting);
    EXPECT_EQ(classifier.categoryOf("bystander"), Category::Other);
    EXPECT_EQ(classifier.categoryOf("user"), Category::Other);
}

TEST(Classifier, ArgumentProducersAreCategoryTwo)
{
    ir::Module m = frontend::compile(
        "void api_get(struct d *p);\n"
        "struct d *lookup(int id);\n"
        "void driver(int id) { api_get(lookup(id)); }\n");
    FunctionClassifier classifier(m, {"api_get"});
    EXPECT_EQ(classifier.categoryOf("lookup"), Category::Affecting);
}

TEST(Classifier, RecursiveCyclePropagates)
{
    ir::Module m = frontend::compile(
        "void api_get(struct d *p);\n"
        "void ping(struct d *p, int n) { pong(p, n); }\n"
        "void pong(struct d *p, int n) { ping(p, n); api_get(p); }\n");
    FunctionClassifier classifier(m, {"api_get"});
    EXPECT_EQ(classifier.categoryOf("ping"),
              Category::RefcountChanging);
    EXPECT_EQ(classifier.categoryOf("pong"),
              Category::RefcountChanging);
}

TEST(Classifier, StatsCount)
{
    ir::Module m = frontend::compile(
        "void api_get(struct d *p);\n"
        "void driver(struct d *p) { api_get(p); }\n"
        "void idle1(void) { }\n"
        "void idle2(void) { }\n");
    FunctionClassifier classifier(m, {"api_get"});
    auto stats = classifier.stats();
    EXPECT_EQ(stats.refcount_changing, 2u);
    EXPECT_EQ(stats.other, 2u);
}

TEST(Classifier, FunctionsInReturnsModuleOrder)
{
    ir::Module m = frontend::compile(
        "void z_idle(void) { }\n"
        "void a_idle(void) { }\n");
    FunctionClassifier classifier(m, {});
    auto others = classifier.functionsIn(Category::Other);
    ASSERT_EQ(others.size(), 2u);
    EXPECT_EQ(others[0], "z_idle");
    EXPECT_EQ(others[1], "a_idle");
}

TEST(Classifier, NodeAndNameLookupsAgreeOnACorpus)
{
    // Categories are stored per call-graph node; the name lookup goes
    // through the module's index. Both must give the same answer.
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    auto corpus =
        kernel::generateCorpus(kernel::CorpusMix::paperCalibrated(0.001));
    for (const auto &file : corpus.files)
        tool.addSource(file.text);
    const ir::Module &m = tool.module();
    CallGraph cg(m);
    FunctionClassifier classifier(m, cg,
                                  tool.summaries().namesWithChanges());

    ClassifierStats counted;
    for (size_t k = 0; k < m.size(); k++) {
        Category c = classifier.categoryOf(static_cast<int>(k));
        EXPECT_EQ(c, classifier.categoryOf(m.functions()[k]->name()));
        switch (c) {
          case Category::RefcountChanging: counted.refcount_changing++; break;
          case Category::Affecting: counted.affecting++; break;
          case Category::Other: counted.other++; break;
        }
    }
    EXPECT_GT(counted.refcount_changing, 0u);
    EXPECT_GT(counted.affecting, 0u);

    ASSERT_GT(cg.size(), m.size());  // the corpus calls undeclared APIs
    for (size_t node = m.size(); node < cg.size(); node++) {
        int id = static_cast<int>(node);
        EXPECT_EQ(classifier.categoryOf(id), Category::Other);
        EXPECT_EQ(classifier.categoryOf(cg.nameOf(id)), Category::Other);
    }
    EXPECT_EQ(classifier.categoryOf(-1), Category::Other);
    EXPECT_EQ(classifier.categoryOf(static_cast<int>(cg.size())),
              Category::Other);
    EXPECT_EQ(classifier.categoryOf("no_such_function"), Category::Other);

    for (Category c : {Category::RefcountChanging, Category::Affecting,
                       Category::Other}) {
        std::vector<std::string> expected;
        for (const auto &fn : m.functions())
            if (classifier.categoryOf(fn->name()) == c)
                expected.push_back(fn->name());
        EXPECT_EQ(classifier.functionsIn(c), expected);
    }

    ClassifierStats stats = classifier.stats();
    EXPECT_EQ(stats.refcount_changing, counted.refcount_changing);
    EXPECT_EQ(stats.affecting, counted.affecting);
    EXPECT_EQ(stats.other, counted.other);
}

} // anonymous namespace
} // namespace rid::analysis
