/**
 * @file
 * Unit tests for AST-to-IR lowering (frontend/lower.h).
 */

#include <gtest/gtest.h>

#include "frontend/lexer.h"
#include "frontend/lower.h"

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

} // anonymous namespace
} // namespace rid::frontend
