/**
 * @file
 * Unit tests for AST-to-IR lowering (frontend/lower.h).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/rid.h"
#include "frontend/lexer.h"
#include "frontend/lower.h"
#include "kernel/dpm_specs.h"

namespace rid::frontend {
namespace {

/** Count instructions of a given opcode across a function. */
int
countOps(const ir::Function &fn, ir::Opcode op)
{
    int n = 0;
    for (size_t b = 0; b < fn.numBlocks(); b++)
        for (const auto &in : fn.block(b).instrs)
            if (in.op == op)
                n++;
    return n;
}

bool
callsFunction(const ir::Function &fn, const std::string &callee)
{
    for (size_t b = 0; b < fn.numBlocks(); b++)
        for (const auto &in : fn.block(b).instrs)
            if (in.op == ir::Opcode::Call && in.callee == callee)
                return true;
    return false;
}

TEST(Lower, SimpleReturn)
{
    ir::Module m = compile("int f(void) { return 3; }");
    const ir::Function *fn = m.find("f");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->numBlocks(), 1u);
    const auto &ret = fn->block(0).instrs.back();
    EXPECT_EQ(ret.op, ir::Opcode::Return);
    EXPECT_EQ(ret.a.intValue(), 3);
}

TEST(Lower, ImplicitReturnAdded)
{
    ir::Module m = compile("void f(void) { g(); }\nvoid g(void);");
    const ir::Function *fn = m.find("f");
    EXPECT_EQ(fn->block(0).instrs.back().op, ir::Opcode::Return);
}

TEST(Lower, IfElseProducesDiamond)
{
    ir::Module m = compile(
        "int f(int a) { int r; if (a > 0) r = 1; else r = 2; return r; }");
    const ir::Function *fn = m.find("f");
    EXPECT_EQ(countOps(*fn, ir::Opcode::CondBranch), 1);
    EXPECT_EQ(countOps(*fn, ir::Opcode::Cmp), 1);
    fn->verify();
}

TEST(Lower, WhileKeepsBackEdge)
{
    ir::Module m = compile(
        "int f(int n) { int i = 0; while (i < n) i = i + 1; return i; }");
    const ir::Function *fn = m.find("f");
    // A back edge exists: some branch targets an earlier block.
    bool back_edge = false;
    for (size_t b = 0; b < fn->numBlocks(); b++) {
        for (auto s : fn->block(b).successors())
            if (s <= static_cast<ir::BlockId>(b))
                back_edge = true;
    }
    EXPECT_TRUE(back_edge);
}

TEST(Lower, ShortCircuitAndBranches)
{
    ir::Module m = compile(
        "int f(int a, int b) { if (a > 0 && b > 0) return 1; return 0; }");
    const ir::Function *fn = m.find("f");
    // Two conditional branches: one per operand.
    EXPECT_EQ(countOps(*fn, ir::Opcode::CondBranch), 2);
}

TEST(Lower, ShortCircuitOrBranches)
{
    ir::Module m = compile(
        "int f(int a, int b) { if (a > 0 || b > 0) return 1; return 0; }");
    EXPECT_EQ(countOps(*m.find("f"), ir::Opcode::CondBranch), 2);
}

TEST(Lower, NotFlipsBranchTargets)
{
    ir::Module m = compile("int f(int a) { if (!a) return 1; return 0; }");
    const ir::Function *fn = m.find("f");
    EXPECT_EQ(countOps(*fn, ir::Opcode::CondBranch), 1);
    // The comparison is a != 0 with swapped targets, or a == 0; either
    // way exactly one Cmp against zero is emitted.
    EXPECT_EQ(countOps(*fn, ir::Opcode::Cmp), 1);
}

TEST(Lower, AssertBecomesAssertFailPath)
{
    ir::Module m = compile(
        "int f(struct d *p) { assert(p != NULL); return 0; }");
    EXPECT_TRUE(callsFunction(*m.find("f"), kAssertFailFn));
}

TEST(Lower, GotoForwardAndBackward)
{
    ir::Module m = compile(
        "int f(int a) {\n"
        "again:\n"
        "  if (a > 0) goto out;\n"
        "  a = a + 1;\n"
        "  goto again;\n"
        "out:\n"
        "  return a;\n"
        "}");
    m.find("f")->verify();
}

TEST(Lower, UndefinedLabelThrows)
{
    EXPECT_THROW(compile("void f(void) { goto nowhere; }"), ParseError);
}

TEST(Lower, BreakAndContinue)
{
    ir::Module m = compile(
        "int f(int n) {\n"
        "  int i = 0;\n"
        "  while (1) {\n"
        "    i = i + 1;\n"
        "    if (i > n) break;\n"
        "    if (i == 3) continue;\n"
        "    work(i);\n"
        "  }\n"
        "  return i;\n"
        "}\nvoid work(int i);");
    m.find("f")->verify();
    EXPECT_TRUE(callsFunction(*m.find("f"), "work"));
}

TEST(Lower, BreakOutsideLoopThrows)
{
    EXPECT_THROW(compile("void f(void) { break; }"), ParseError);
}

TEST(Lower, ArithmeticBecomesRandom)
{
    // The abstraction ignores arithmetic (Section 4.1): non-constant
    // additions become the random generator.
    ir::Module m = compile("int f(int a, int b) { return a + b; }");
    EXPECT_EQ(countOps(*m.find("f"), ir::Opcode::Random), 1);
}

TEST(Lower, ConstantArithmeticFolds)
{
    ir::Module m = compile("int f(void) { return 2 + 3 * 4; }");
    const ir::Function *fn = m.find("f");
    EXPECT_EQ(countOps(*fn, ir::Opcode::Random), 0);
    EXPECT_EQ(fn->block(0).instrs.back().a.intValue(), 14);
}

TEST(Lower, OverflowingConstantsFoldWithWraparound)
{
    // INT64_MIN / -1 and friends fold to their two's-complement values
    // instead of trapping or invoking undefined behaviour.
    auto folded = [](const std::string &expr) {
        ir::Module m = compile("int f(void) { return " + expr + "; }");
        return m.find("f")->block(0).instrs.back().a.intValue();
    };
    const std::string min = "(-9223372036854775807 - 1)";
    EXPECT_EQ(folded(min), INT64_MIN);
    EXPECT_EQ(folded(min + " / -1"), INT64_MIN);
    EXPECT_EQ(folded(min + " % -1"), 0);
    EXPECT_EQ(folded("9223372036854775807 + 1"), INT64_MIN);
    EXPECT_EQ(folded(min + " - 1"), INT64_MAX);
    EXPECT_EQ(folded("4611686018427387904 * 4"), 0);
    EXPECT_EQ(folded("-1 << 63"), INT64_MIN);
    EXPECT_EQ(folded("7 / -1"), -7);
    EXPECT_EQ(folded("7 % -1"), 0);
}

TEST(Lower, BitOperationsBecomeRandom)
{
    ir::Module m = compile("int f(int flags) { return flags & 4; }");
    EXPECT_EQ(countOps(*m.find("f"), ir::Opcode::Random), 1);
}

TEST(Lower, FieldAccessBecomesFieldLoad)
{
    ir::Module m = compile("int f(struct d *p) { return p->state; }");
    EXPECT_EQ(countOps(*m.find("f"), ir::Opcode::FieldLoad), 1);
}

TEST(Lower, AddressOfFieldIsSameObject)
{
    // &intf->dev lowers to the same field load as intf->dev; the callee
    // receives the field object.
    ir::Module m = compile(
        "void f(struct intf *i) { pm_get(&i->dev); }\n"
        "void pm_get(struct device *d);");
    const ir::Function *fn = m.find("f");
    EXPECT_EQ(countOps(*fn, ir::Opcode::FieldLoad), 1);
    EXPECT_EQ(countOps(*fn, ir::Opcode::Call), 1);
}

TEST(Lower, DerefBecomesDerefField)
{
    ir::Module m = compile("int f(int *p) { return *p; }");
    const ir::Function *fn = m.find("f");
    bool deref = false;
    for (const auto &in : fn->block(0).instrs)
        if (in.op == ir::Opcode::FieldLoad && in.field == "deref")
            deref = true;
    EXPECT_TRUE(deref);
}

TEST(Lower, FieldStoresDropped)
{
    // Stores to data structures are outside the abstraction
    // (Section 5.4); the rhs is still evaluated for effects.
    ir::Module m = compile(
        "void f(struct d *p) { p->state = g(); }\nint g(void);");
    const ir::Function *fn = m.find("f");
    EXPECT_TRUE(callsFunction(*fn, "g"));
    EXPECT_EQ(countOps(*fn, ir::Opcode::Assign), 0);
}

TEST(Lower, TernaryProducesJoin)
{
    ir::Module m = compile("int f(int a) { return a > 0 ? 1 : 2; }");
    const ir::Function *fn = m.find("f");
    EXPECT_EQ(countOps(*fn, ir::Opcode::CondBranch), 1);
    fn->verify();
}

TEST(Lower, LogicalValueMaterializes)
{
    ir::Module m = compile(
        "int f(int a, int b) { int ok = a > 0 && b > 0; return ok; }");
    const ir::Function *fn = m.find("f");
    EXPECT_EQ(countOps(*fn, ir::Opcode::CondBranch), 2);
    fn->verify();
}

TEST(Lower, FunctionPointerCallBecomesRandom)
{
    // Calls through pointers are outside the abstraction (Section 6.4).
    ir::Module m = compile(
        "int f(struct ops *o, int a) { return o->run(a); }");
    const ir::Function *fn = m.find("f");
    EXPECT_EQ(countOps(*fn, ir::Opcode::Call), 0);
    EXPECT_GE(countOps(*fn, ir::Opcode::Random), 1);
}

TEST(Lower, StringArgumentsAreOpaque)
{
    ir::Module m = compile(
        "void f(struct d *p) { dev_err(p, \"bad state\"); }\n"
        "void dev_err(struct d *p, const char *msg);");
    EXPECT_TRUE(callsFunction(*m.find("f"), "dev_err"));
}

TEST(Lower, DeadCodeAfterReturnIsSealed)
{
    ir::Module m = compile(
        "int f(int a) { return a; a = 1; return 0; }");
    m.find("f")->verify();  // unreachable tail must not break the IR
}

TEST(Lower, SourceLinesAttached)
{
    ir::Module m = compile("int f(struct d *p) {\n\n  return g(p);\n}\n"
                           "int g(struct d *p);");
    const ir::Function *fn = m.find("f");
    bool found = false;
    for (const auto &in : fn->block(0).instrs) {
        if (in.op == ir::Opcode::Call) {
            EXPECT_EQ(in.line, 3);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Lower, PostIncrementStatement)
{
    ir::Module m = compile("void f(int a) { a++; }");
    m.find("f")->verify();
}

TEST(LowerCommit, RejectedUnitLeavesTheCorpusModuleAsItWas)
{
    // A unit is committed only once all of it has lowered and verified.
    // When its last function fails, none of its functions reach the
    // corpus module (not even the definition that would replace an
    // earlier declaration), and it takes no unit ordinal.
    Rid tool;
    ASSERT_TRUE(tool.addSourceTolerant(
        "first.c", "int helper(int a);\n"
                   "int user(int a) { return helper(a); }\n"));
    const ir::Module &mod = tool.module();
    std::vector<const ir::Function *> before;
    for (const auto &fn : mod.functions())
        before.push_back(fn);
    ASSERT_EQ(before.size(), 2u);
    ASSERT_TRUE(mod.find("helper")->isDeclaration());

    EXPECT_FALSE(tool.addSourceTolerant(
        "second.c", "int helper(int a) { return a; }\n"
                    "int extra(void) { return 0; }\n"
                    "int bad(void) { break; }\n"));
    ASSERT_EQ(tool.fileDiagnostics().size(), 1u);
    EXPECT_EQ(tool.fileDiagnostics()[0].file, "second.c");
    ASSERT_EQ(mod.size(), before.size());
    for (size_t k = 0; k < before.size(); k++) {
        EXPECT_EQ(mod.functions()[k], before[k]);
        EXPECT_EQ(mod.indexOf(before[k]->name()), static_cast<int>(k));
        EXPECT_EQ(mod.skeleton(k).unit, 0u);
    }
    EXPECT_TRUE(mod.find("helper")->isDeclaration());
    EXPECT_EQ(mod.indexOf("extra"), -1);
    EXPECT_EQ(mod.indexOf("bad"), -1);

    // The next accepted unit is unit 1, and its definition takes the
    // declaration's position.
    ASSERT_TRUE(tool.addSourceTolerant(
        "third.c", "int helper(int a) { return a; }\n"));
    EXPECT_EQ(mod.size(), 2u);
    EXPECT_EQ(mod.indexOf("helper"), 0);
    EXPECT_FALSE(mod.find("helper")->isDeclaration());
    EXPECT_EQ(mod.skeleton(mod.indexOf("helper")).unit, 1u);
    EXPECT_EQ(mod.skeleton(mod.indexOf("user")).unit, 0u);
}

TEST(LowerCommit, RejectedFileDoesNotShiftTheTriageUnits)
{
    // Units count committed files only, so with a rejected file between
    // two accepted ones a skeleton's unit still indexes the retained
    // sources, and triage re-lowers the unit that defines it: the
    // bit-test false positive is refuted only by its own body.
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    ASSERT_TRUE(tool.addSourceTolerant(
        "clean.c", "int clean_fn(struct device *dev) { return 0; }\n"));
    EXPECT_FALSE(tool.addSourceTolerant(
        "broken.c", "int fp_bitmask_fn(struct device *dev, int flags) {\n"
                    "    return 0;\n"
                    "}\n"
                    "int broken(void) { break; }\n"));
    ASSERT_TRUE(tool.addSourceTolerant(
        "bitmask.c",
        "int fp_bitmask_fn(struct device *dev, int flags) {\n"
        "    if (flags & 4) {\n"
        "        pm_runtime_get_noresume(dev);\n"
        "        mark_async_0(dev);\n"
        "    }\n"
        "    return 0;\n"
        "}\n"
        "void mark_async_0(struct device *dev);\n"));
    const int k = tool.module().indexOf("fp_bitmask_fn");
    ASSERT_GE(k, 0);
    EXPECT_EQ(tool.module().skeleton(k).unit, 1u);

    RunResult result = tool.run();
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].function, "fp_bitmask_fn");
    EXPECT_EQ(result.reports[0].tier, analysis::Tier::Refuted)
        << result.reports[0].str();
    EXPECT_EQ(result.triage.hp_units_lowered, 1u);
    EXPECT_EQ(result.triage.hp_functions_incomplete, 0u);
    ASSERT_EQ(result.file_errors.size(), 1u);
    EXPECT_EQ(result.file_errors[0].file, "broken.c");
}

} // anonymous namespace
} // namespace rid::frontend
