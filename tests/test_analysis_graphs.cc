/**
 * @file
 * Unit tests for the call graph, post-dominators, control dependence and
 * the backward slicer (analysis/).
 */

#include <gtest/gtest.h>

#include "analysis/callgraph.h"
#include "analysis/domtree.h"
#include "analysis/slicer.h"
#include "frontend/lower.h"

namespace rid::analysis {
namespace {

TEST(CallGraph, EdgesFromCalls)
{
    ir::Module m = frontend::compile(
        "void a(void) { b(); c(); }\n"
        "void b(void) { c(); }\n"
        "void c(void) { }\n");
    CallGraph cg(m);
    int a = cg.nodeOf("a"), b = cg.nodeOf("b"), c = cg.nodeOf("c");
    ASSERT_GE(a, 0);
    EXPECT_EQ(cg.calleesOf(a).size(), 2u);
    EXPECT_EQ(cg.calleesOf(b), (std::vector<int>{c}));
    EXPECT_TRUE(cg.calleesOf(c).empty());
    EXPECT_EQ(cg.callersOf(c).size(), 2u);
}

TEST(CallGraph, UndeclaredCalleesGetNodes)
{
    ir::Module m = frontend::compile("void a(void) { mystery(); }");
    CallGraph cg(m);
    EXPECT_GE(cg.nodeOf("mystery"), 0);
}

TEST(CallGraph, ModuleFunctionsComeFirstInModuleOrder)
{
    // The analyzer indexes its per-run function table by node on the
    // strength of this numbering.
    ir::Module m = frontend::compile(
        "void z(void) { mystery(); y(); }\n"
        "void y(void);\n"
        "void x(void) { z(); other(); }\n");
    CallGraph cg(m);
    ASSERT_EQ(cg.size(), m.size() + 2);
    for (size_t k = 0; k < m.size(); k++)
        EXPECT_EQ(cg.nameOf(static_cast<int>(k)), m.functions()[k]->name());
    // Undeclared call targets follow, in first-call order.
    const int n = static_cast<int>(m.size());
    EXPECT_EQ(cg.nodeOf("mystery"), n);
    EXPECT_EQ(cg.nodeOf("other"), n + 1);
    for (const char *name : {"z", "y", "x", "mystery", "other"})
        EXPECT_EQ(cg.nameOf(cg.nodeOf(name)), name);
    EXPECT_EQ(cg.nodeOf("absent"), -1);
    EXPECT_THROW(cg.nameOf(n + 2), std::out_of_range);
    EXPECT_THROW(cg.nameOf(-1), std::out_of_range);
}

TEST(CallGraph, ReverseTopoPutsCalleesFirst)
{
    ir::Module m = frontend::compile(
        "void a(void) { b(); }\n"
        "void b(void) { c(); }\n"
        "void c(void) { }\n");
    CallGraph cg(m);
    // The bottom-up walk: SCCs in id order, each one's members in order.
    std::vector<int> order;
    for (size_t scc = 0; scc < cg.numSccs(); scc++)
        for (int node : cg.sccMembers(static_cast<int>(scc)))
            order.push_back(node);
    auto pos = [&](const char *name) {
        int node = cg.nodeOf(name);
        for (size_t i = 0; i < order.size(); i++)
            if (order[i] == node)
                return i;
        return order.size();
    };
    EXPECT_LT(pos("c"), pos("b"));
    EXPECT_LT(pos("b"), pos("a"));
}

TEST(CallGraph, RecursionFormsOneScc)
{
    ir::Module m = frontend::compile(
        "void even(int n) { odd(n); }\n"
        "void odd(int n) { even(n); }\n"
        "void driver(void) { even(4); }\n");
    CallGraph cg(m);
    EXPECT_EQ(cg.sccOf(cg.nodeOf("even")), cg.sccOf(cg.nodeOf("odd")));
    EXPECT_NE(cg.sccOf(cg.nodeOf("even")),
              cg.sccOf(cg.nodeOf("driver")));
}

TEST(CallGraph, SelfRecursionIsItsOwnScc)
{
    ir::Module m = frontend::compile("void f(int n) { f(n); }");
    CallGraph cg(m);
    EXPECT_EQ(cg.sccMembers(cg.sccOf(cg.nodeOf("f"))).size(), 1u);
}

TEST(CallGraph, SccIdsRespectTopoOrder)
{
    ir::Module m = frontend::compile(
        "void leaf(void) { }\n"
        "void mid(void) { leaf(); }\n"
        "void top(void) { mid(); }\n");
    CallGraph cg(m);
    EXPECT_LT(cg.sccOf(cg.nodeOf("leaf")), cg.sccOf(cg.nodeOf("mid")));
    EXPECT_LT(cg.sccOf(cg.nodeOf("mid")), cg.sccOf(cg.nodeOf("top")));
}

TEST(CallGraph, CalleesDeduplicated)
{
    ir::Module m = frontend::compile(
        "void f(void) { g(); h(); g(); }\n"
        "void g(void) { }\n");
    CallGraph cg(m);
    EXPECT_EQ(cg.calleesOf(cg.nodeOf("f")),
              (std::vector<int>{cg.nodeOf("g"), cg.nodeOf("h")}));
    EXPECT_EQ(cg.callersOf(cg.nodeOf("g")),
              (std::vector<int>{cg.nodeOf("f")}));
}

TEST(CallGraph, DeepChainDoesNotOverflow)
{
    // The iterative Tarjan must survive long call chains.
    std::string src;
    for (int i = 0; i < 5000; i++) {
        src += "void f" + std::to_string(i) + "(void) { ";
        if (i > 0)
            src += "f" + std::to_string(i - 1) + "();";
        src += " }\n";
    }
    ir::Module m = frontend::compile(src);
    CallGraph cg(m);
    EXPECT_EQ(cg.numSccs(), 5000u);
}

TEST(PostDominators, LinearChain)
{
    ir::Module m = frontend::compile(
        "int f(int a) { int b = a; return b; }");
    const ir::Function *fn = m.find("f");
    PostDominators pdom(*fn);
    EXPECT_TRUE(pdom.postDominates(0, 0));
}

TEST(PostDominators, DiamondJoinPostDominatesBranch)
{
    ir::Module m = frontend::compile(
        "int f(int a) { int r; if (a > 0) r = 1; else r = 2; "
        "return r; }");
    const ir::Function *fn = m.find("f");
    PostDominators pdom(*fn);
    // The branch block is bb0; its two arms do not post-dominate it, but
    // the join (the block with the return) does.
    ir::BlockId ret_block = -1;
    for (size_t b = 0; b < fn->numBlocks(); b++) {
        if (fn->block(b).hasTerminator() &&
            fn->block(b).terminator().op == ir::Opcode::Return) {
            ret_block = static_cast<ir::BlockId>(b);
        }
    }
    ASSERT_GE(ret_block, 0);
    EXPECT_TRUE(pdom.postDominates(ret_block, 0));
}

TEST(ControlDeps, ArmsDependOnBranch)
{
    ir::Module m = frontend::compile(
        "int f(int a) { int r = 0; if (a > 0) r = 1; return r; }");
    const ir::Function *fn = m.find("f");
    ControlDeps deps(*fn);
    // Find the block that assigns r = 1: it must be control dependent on
    // the branch block (bb0).
    bool found = false;
    for (size_t b = 0; b < fn->numBlocks(); b++) {
        for (const auto &in : fn->block(b).instrs) {
            if (in.op == ir::Opcode::Assign && in.dst == "r" &&
                in.a.isConst() && in.a.intValue() == 1) {
                found = true;
                EXPECT_FALSE(
                    deps.depsOf(static_cast<ir::BlockId>(b)).empty());
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST(Slicer, ReturnCriterionPullsDataDeps)
{
    ir::Module m = frontend::compile(
        "int f(int a) { int unused = g(); int r = h(a); return r; }\n"
        "int g(void);\nint h(int a);");
    const ir::Function *fn = m.find("f");
    auto slice = backwardSlice(*fn, /*include_returns=*/true,
                               [](const ir::Instruction &) {
                                   return false;
                               });
    bool has_h = false, has_g = false;
    for (const auto &ref : slice) {
        const auto &in = fn->block(ref.block).instrs[ref.index];
        if (in.op == ir::Opcode::Call && in.callee == "h")
            has_h = true;
        if (in.op == ir::Opcode::Call && in.callee == "g")
            has_g = true;
    }
    EXPECT_TRUE(has_h);
    EXPECT_FALSE(has_g);  // g's result is dead
}

TEST(Slicer, CallCriterionPullsArgumentDefs)
{
    ir::Module m = frontend::compile(
        "void f(int a) { int x = prep(a); sink(x); int y = other(); "
        "log(y); }\n"
        "int prep(int a);\nvoid sink(int x);\nint other(void);\n"
        "void log(int y);");
    const ir::Function *fn = m.find("f");
    auto slice = backwardSlice(
        *fn, /*include_returns=*/false, [](const ir::Instruction &in) {
            return in.callee == "sink";
        });
    bool has_prep = false, has_other = false;
    for (const auto &ref : slice) {
        const auto &in = fn->block(ref.block).instrs[ref.index];
        if (in.op == ir::Opcode::Call && in.callee == "prep")
            has_prep = true;
        if (in.op == ir::Opcode::Call && in.callee == "other")
            has_other = true;
    }
    EXPECT_TRUE(has_prep);
    EXPECT_FALSE(has_other);
}

TEST(Slicer, ControlDependenceIncludesGuards)
{
    ir::Module m = frontend::compile(
        "void f(int a) { int ok = check(a); if (ok) sink(a); }\n"
        "int check(int a);\nvoid sink(int a);");
    const ir::Function *fn = m.find("f");
    auto slice = backwardSlice(
        *fn, /*include_returns=*/false, [](const ir::Instruction &in) {
            return in.callee == "sink";
        });
    bool has_check = false;
    for (const auto &ref : slice) {
        const auto &in = fn->block(ref.block).instrs[ref.index];
        if (in.op == ir::Opcode::Call && in.callee == "check")
            has_check = true;
    }
    // check() guards the sink call: control dependence pulls it in.
    EXPECT_TRUE(has_check);
}

TEST(Slicer, EmptyCriteriaEmptySlice)
{
    ir::Module m = frontend::compile("void f(int a) { g(a); }\n"
                                     "void g(int a);");
    auto slice = backwardSlice(*m.find("f"), /*include_returns=*/false,
                               [](const ir::Instruction &) {
                                   return false;
                               });
    EXPECT_TRUE(slice.empty());
}

} // anonymous namespace
} // namespace rid::analysis
