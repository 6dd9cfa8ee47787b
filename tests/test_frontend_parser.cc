/**
 * @file
 * Unit tests for the Kernel-C parser (frontend/parser.h).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "frontend/parser.h"

namespace rid::frontend {
namespace {

TEST(Parser, PrototypeAndDefinition)
{
    AstUnit unit = parseUnit("int f(int a);\nint g(int b) { return b; }");
    ASSERT_EQ(unit.functions.size(), 2u);
    EXPECT_FALSE(unit.functions[0].is_definition);
    EXPECT_TRUE(unit.functions[1].is_definition);
    EXPECT_EQ(unit.functions[0].name, "f");
    EXPECT_EQ(unit.functions[1].params[0].name, "b");
}

TEST(Parser, VoidReturnDetected)
{
    AstUnit unit = parseUnit("void f(void);\nint *g(void);");
    EXPECT_FALSE(unit.functions[0].returns_value);
    EXPECT_TRUE(unit.functions[1].returns_value);  // void* returns a value
}

TEST(Parser, PointerParams)
{
    AstUnit unit = parseUnit("int f(struct device *dev, int x);");
    ASSERT_EQ(unit.functions[0].params.size(), 2u);
    EXPECT_EQ(unit.functions[0].params[0].name, "dev");
    EXPECT_EQ(unit.functions[0].params[1].name, "x");
}

TEST(Parser, UnnamedParamsGetSyntheticNames)
{
    AstUnit unit = parseUnit("int f(int, struct x *);");
    EXPECT_EQ(unit.functions[0].params[0].name, "p0");
    EXPECT_EQ(unit.functions[0].params[1].name, "p1");
}

TEST(Parser, VariadicFunctions)
{
    AstUnit unit = parseUnit("int printk(const char *fmt, ...);");
    EXPECT_TRUE(unit.functions[0].is_variadic);
    EXPECT_EQ(unit.functions[0].params.size(), 1u);
}

TEST(Parser, StructDefinitionsSkipped)
{
    AstUnit unit = parseUnit(
        "struct device { int state; };\n"
        "typedef struct device dev_t;\n"
        "enum mode { A, B };\n"
        "int f(void) { return 0; }");
    ASSERT_EQ(unit.functions.size(), 1u);
    EXPECT_EQ(unit.functions[0].name, "f");
}

TEST(Parser, GlobalVariablesSkipped)
{
    AstUnit unit = parseUnit("static int counter;\nint f(void);");
    ASSERT_EQ(unit.functions.size(), 1u);
}

TEST(Parser, DeclWithMultipleDeclarators)
{
    AstUnit unit =
        parseUnit("void f(void) { int a = 1, b, *c = NULL; }");
    const AstStmt &body = *unit.functions[0].body;
    ASSERT_EQ(body.body.size(), 1u);
    const AstStmt &decl = *body.body[0];
    EXPECT_EQ(decl.kind, AstStmtKind::Decl);
    EXPECT_EQ(std::vector<ir::Name>(decl.names.begin(), decl.names.end()),
              (std::vector<ir::Name>{"a", "b", "c"}));
    EXPECT_NE(decl.inits[0], nullptr);
    EXPECT_EQ(decl.inits[1], nullptr);
    EXPECT_NE(decl.inits[2], nullptr);
}

TEST(Parser, IfElseChain)
{
    AstUnit unit = parseUnit(
        "int f(int a) { if (a > 0) return 1; else if (a < 0) return -1; "
        "else return 0; }");
    const AstStmt &s = *unit.functions[0].body->body[0];
    EXPECT_EQ(s.kind, AstStmtKind::If);
    ASSERT_NE(s.else_body, nullptr);
    EXPECT_EQ(s.else_body->kind, AstStmtKind::If);
}

TEST(Parser, LoopsParse)
{
    AstUnit unit = parseUnit(
        "void f(int n) {\n"
        "  int i = 0;\n"
        "  while (i < n) i = i + 1;\n"
        "  do { n = n - 1; } while (n > 0);\n"
        "  for (i = 0; i < n; i = i + 1) work(i);\n"
        "  for (;;) break;\n"
        "}");
    const auto &body = unit.functions[0].body->body;
    EXPECT_EQ(body[1]->kind, AstStmtKind::While);
    EXPECT_EQ(body[2]->kind, AstStmtKind::DoWhile);
    EXPECT_EQ(body[3]->kind, AstStmtKind::For);
    EXPECT_EQ(body[4]->kind, AstStmtKind::For);
    EXPECT_EQ(body[4]->cond, nullptr);
}

TEST(Parser, GotoAndLabels)
{
    AstUnit unit = parseUnit(
        "int f(int a) { if (a) goto out; a = 1; out: return a; }");
    const auto &body = unit.functions[0].body->body;
    EXPECT_EQ(body[2]->kind, AstStmtKind::Label);
    EXPECT_EQ(body[2]->names[0], "out");
}

TEST(Parser, AssertStatement)
{
    AstUnit unit = parseUnit("void f(int *p) { assert(p != NULL); }");
    EXPECT_EQ(unit.functions[0].body->body[0]->kind,
              AstStmtKind::Assert);
}

TEST(Parser, PrecedenceOrdersOperators)
{
    // a || b && c == d + e  parses as  a || (b && ((c) == (d + e)))
    AstUnit unit =
        parseUnit("int f(int a,int b,int c,int d,int e)"
                  "{ return a || b && c == d + e; }");
    const AstExpr &root = *unit.functions[0].body->body[0]->rhs;
    EXPECT_EQ(root.text, "||");
    EXPECT_EQ(root.b->text, "&&");
    EXPECT_EQ(root.b->b->text, "==");
    EXPECT_EQ(root.b->b->b->text, "+");
}

TEST(Parser, FieldAccessChains)
{
    AstUnit unit =
        parseUnit("int f(struct a *x) { return x->b->c.d; }");
    const AstExpr &e = *unit.functions[0].body->body[0]->rhs;
    EXPECT_EQ(e.kind, AstExprKind::Field);
    EXPECT_EQ(e.text, "d");
    EXPECT_EQ(e.a->text, "c");
    EXPECT_EQ(e.a->a->text, "b");
}

TEST(Parser, CallsWithArguments)
{
    AstUnit unit =
        parseUnit("int f(int a) { return g(a, 1, h(a)); }");
    const AstExpr &call = *unit.functions[0].body->body[0]->rhs;
    EXPECT_EQ(call.kind, AstExprKind::Call);
    EXPECT_EQ(call.a->text, "g");
    EXPECT_EQ(call.args.size(), 3u);
    EXPECT_EQ(call.args[2]->kind, AstExprKind::Call);
}

TEST(Parser, AddressOfFieldArgument)
{
    AstUnit unit = parseUnit(
        "void f(struct intf *i) { pm_get(&i->dev); }");
    const AstExpr &call = *unit.functions[0].body->body[0]->rhs;
    EXPECT_EQ(call.args[0]->kind, AstExprKind::Unary);
    EXPECT_EQ(call.args[0]->text, "&");
    EXPECT_EQ(call.args[0]->a->kind, AstExprKind::Field);
}

TEST(Parser, CastsIgnored)
{
    AstUnit unit = parseUnit(
        "void f(void *p) { struct dev *d = (struct dev *)p; }");
    const AstStmt &decl = *unit.functions[0].body->body[0];
    ASSERT_NE(decl.inits[0], nullptr);
    EXPECT_EQ(decl.inits[0]->kind, AstExprKind::Ident);
}

TEST(Parser, TernaryExpression)
{
    AstUnit unit = parseUnit("int f(int a) { return a > 0 ? 1 : -1; }");
    const AstExpr &e = *unit.functions[0].body->body[0]->rhs;
    EXPECT_EQ(e.kind, AstExprKind::Ternary);
}

TEST(Parser, CompoundAssignBecomesBinary)
{
    AstUnit unit = parseUnit("void f(int a) { a += 2; }");
    const AstStmt &s = *unit.functions[0].body->body[0];
    EXPECT_EQ(s.kind, AstStmtKind::Assign);
    EXPECT_EQ(s.rhs->kind, AstExprKind::Binary);
    EXPECT_EQ(s.rhs->text, "+");
}

TEST(Parser, SizeofIsConstant)
{
    AstUnit unit =
        parseUnit("int f(void) { return sizeof(struct dev); }");
    EXPECT_EQ(unit.functions[0].body->body[0]->rhs->kind,
              AstExprKind::Number);
}

TEST(Parser, SwitchRejected)
{
    EXPECT_THROW(parseUnit("void f(int a) { switch (a) { } }"),
                 ParseError);
}

TEST(Parser, SyntaxErrorsCarryLineNumbers)
{
    try {
        parseUnit("int f(void) {\n  return 1 +;\n}");
        FAIL() << "expected ParseError";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 2);
    }
}

TEST(Parser, ForEachExprVisitsAll)
{
    AstUnit unit = parseUnit(
        "int f(int a) { int b = g(a); if (b > 0) return b; return 0; }");
    int calls = 0, idents = 0;
    forEachExpr(*unit.functions[0].body, [&](const AstExpr &e) {
        if (e.kind == AstExprKind::Call)
            calls++;
        if (e.kind == AstExprKind::Ident)
            idents++;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_GE(idents, 4);  // g, a, b (cond), b (return)
}

TEST(Parser, ForEachStmtVisitsNested)
{
    AstUnit unit = parseUnit(
        "void f(int a) { if (a) { while (a) { a = 0; } } }");
    int whiles = 0;
    forEachStmt(*unit.functions[0].body, [&](const AstStmt &s) {
        if (s.kind == AstStmtKind::While)
            whiles++;
    });
    EXPECT_EQ(whiles, 1);
}

TEST(Parser, TypedefStyleParamTypes)
{
    AstUnit unit = parseUnit("int f(irqreturn_t r, size_t n);");
    ASSERT_EQ(unit.functions[0].params.size(), 2u);
    EXPECT_EQ(unit.functions[0].params[0].name, "r");
    EXPECT_EQ(unit.functions[0].params[1].name, "n");
}

TEST(Parser, StaticInlineFunctions)
{
    AstUnit unit = parseUnit(
        "static inline int f(void) { return 0; }");
    ASSERT_EQ(unit.functions.size(), 1u);
    EXPECT_TRUE(unit.functions[0].is_definition);
}

TEST(ParserArena, MoveAssignedUnitKeepsItsTree)
{
    AstUnit unit;
    EXPECT_TRUE(unit.functions.empty());
    unit = parseUnit("int f(int a) { int b = g(a, h(a)); return b; }");
    AstUnit moved = std::move(unit);
    unit = std::move(moved);
    ASSERT_EQ(unit.functions.size(), 1u);
    int calls = 0, idents = 0;
    forEachExpr(*unit.functions[0].body, [&](const AstExpr &e) {
        calls += e.kind == AstExprKind::Call;
        idents += e.kind == AstExprKind::Ident;
    });
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(idents, 5);  // g, a, h, a, b
}

TEST(ParserArena, ListsLargerThanAChunk)
{
    // 20,000 statements and 5,000 arguments: each list is bigger than
    // an arena chunk, and the nodes fill many chunks.
    std::string src = "int f(int a) {\n";
    for (int i = 0; i < 20000; i++)
        src += "  a = a + " + std::to_string(i) + ";\n";
    src += "  return g(";
    for (int i = 0; i < 5000; i++)
        src += (i ? ", " : "") + std::to_string(i);
    src += ");\n}\n";
    AstUnit unit = parseUnit(src);
    const AstStmt &body = *unit.functions[0].body;
    ASSERT_EQ(body.body.size(), 20001u);
    for (size_t i = 0; i < 20000; i++) {
        const AstStmt &s = *body.body[i];
        ASSERT_EQ(s.kind, AstStmtKind::Assign);
        EXPECT_EQ(s.line, static_cast<int>(i) + 2);
        EXPECT_EQ(s.rhs->b->number, static_cast<int64_t>(i));
    }
    const AstExpr &call = *body.body[20000]->rhs;
    ASSERT_EQ(call.args.size(), 5000u);
    for (size_t i = 0; i < 5000; i++)
        EXPECT_EQ(call.args[i]->number, static_cast<int64_t>(i));
}

TEST(ParserArena, ErrorHalfWayFreesThePartialTree)
{
    // Under LeakSanitizer, the nodes built before the error must go with
    // the unit's arena.
    std::string src;
    for (int i = 0; i < 200; i++)
        src += "int f" + std::to_string(i) + "(int a) { return g(a, a); }\n";
    src += "int broken(void) { return 1 +; }\n";
    for (int i = 0; i < 200; i++)
        src += "int h" + std::to_string(i) + "(int a) { return a; }\n";
    try {
        parseUnit(src);
        FAIL() << "expected ParseError";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 201);
    }
}

TEST(ParserArena, NestingLimitIsExact)
{
    // Each nested block statement is one level; the body's own braces
    // are not.
    auto nested = [](int depth) {
        return "void f(void) { " + std::string(depth, '{') +
               std::string(depth, '}') + " }";
    };
    AstUnit unit = parseUnit(nested(256));
    int blocks = 0;
    forEachStmt(*unit.functions[0].body, [&](const AstStmt &s) {
        blocks += s.kind == AstStmtKind::Block;
    });
    EXPECT_EQ(blocks, 257);
    try {
        parseUnit(nested(257));
        FAIL() << "expected ParseError";
    } catch (const ParseError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "nesting deeper than 256 levels"),
                  std::string::npos)
            << e.what();
    }
}

} // anonymous namespace
} // namespace rid::frontend
