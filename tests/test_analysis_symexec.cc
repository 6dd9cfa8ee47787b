/**
 * @file
 * Unit tests for the symbolic executor and local-state projection
 * (analysis/symexec.h).
 */

#include <gtest/gtest.h>

#include "analysis/symexec.h"
#include "frontend/lower.h"
#include "summary/spec.h"

namespace rid::analysis {
namespace {

using smt::Expr;
using smt::Formula;
using smt::Pred;

/** Run the full path-summary pipeline for one function. */
std::vector<summary::SummaryEntry>
summarize(const std::string &source, const std::string &fn_name,
          const std::string &specs = "", int max_subcases = 10)
{
    ir::Module m = frontend::compile(source);
    const ir::Function *fn = m.find(fn_name);
    EXPECT_NE(fn, nullptr);
    summary::SummaryDb db;
    if (!specs.empty())
        summary::loadSpecsInto(specs, db);
    smt::Solver solver;
    TreeExecOptions opts;
    opts.max_subcases = max_subcases;
    std::vector<summary::SummaryEntry> entries;
    auto result = executeFunctionTree(*fn, db, solver, opts);
    for (auto &path : result.completed)
        for (auto &e : path.entries)
            entries.push_back(std::move(e));
    return entries;
}

const char *kDpmSpec = R"(
summary pm_get(dev) -> int {
  entry { cons: true; change: [dev].pm += 1; return: [0]; }
}
summary pm_put(dev) -> int {
  entry { cons: true; change: [dev].pm -= 1; return: [0]; }
}
summary two_entry(d) -> int {
  entry { cons: [d] != null && [0] >= 0; return: [0]; }
  entry { cons: [0] == -1; return: -1; }
}
)";

TEST(SymExec, ConstantReturnBindsRetAtom)
{
    auto entries = summarize("int f(void) { return 7; }", "f");
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_TRUE(entries[0].ret.equals(Expr::intConst(7)));
    EXPECT_EQ(entries[0].cons.str(), "[0] == 7");
    EXPECT_TRUE(entries[0].changes.empty());
}

TEST(SymExec, ArgumentReturnedBindsRetToArg)
{
    auto entries = summarize("int f(int a) { return a; }", "f");
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].cons.str(), "[0] == [a]");
}

TEST(SymExec, RefcountChangeRecorded)
{
    auto entries = summarize(
        "int f(struct d *dev) { pm_get(dev); return 0; }", "f",
        kDpmSpec);
    ASSERT_EQ(entries.size(), 1u);
    ASSERT_EQ(entries[0].changes.size(), 1u);
    EXPECT_EQ(entries[0].changes.begin()->first.str(), "[dev].pm");
    EXPECT_EQ(entries[0].changes.begin()->second, 1);
}

TEST(SymExec, GetPutCancels)
{
    auto entries = summarize(
        "int f(struct d *dev) { pm_get(dev); pm_put(dev); return 0; }",
        "f", kDpmSpec);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_TRUE(entries[0].changes.empty());
}

TEST(SymExec, BranchConditionEntersCons)
{
    auto entries = summarize(
        "int f(int a) { if (a > 0) return 1; return 0; }", "f");
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].cons.str(), "[a] > 0 && [0] == 1");
    EXPECT_EQ(entries[1].cons.str(), "[a] <= 0 && [0] == 0");
}

TEST(SymExec, CalleeEntriesForkSubcases)
{
    // two_entry() has two summary entries; a path through a single call
    // yields two subcases.
    auto entries = summarize(
        "int f(struct d *p) { int v = two_entry(p); return 0; }", "f",
        kDpmSpec);
    EXPECT_EQ(entries.size(), 2u);
}

TEST(SymExec, InfeasibleSubcasesPruned)
{
    // The paper's running example: on the v <= 0 path, the callee's
    // "[0] >= 0" entry forces v == 0 and the "-1" entry forces v == -1;
    // combining with `v > 0` both die, so the increment path has exactly
    // one feasible subcase (the >= 0 one).
    auto entries = summarize(R"(
int f(struct d *dev) {
    assert(dev != NULL);
    int v = two_entry(dev);
    if (v <= 0)
        return 0;
    pm_get(dev);
    return 0;
}
)",
                             "f", kDpmSpec);
    // v <= 0 path: two subcases (v == 0, v == -1); v > 0 path: one
    // subcase ([0] >= 0 with v > 0 feasible).
    ASSERT_EQ(entries.size(), 3u);
    int with_change = 0;
    for (const auto &e : entries)
        if (!e.changes.empty())
            with_change++;
    EXPECT_EQ(with_change, 1);
}

TEST(SymExec, LocalConditionsProjectedOut)
{
    auto entries = summarize(R"(
int f(struct d *p) {
    int v = two_entry(p);
    if (v <= 0)
        return 0;
    return 0;
}
)",
                             "f", kDpmSpec);
    for (const auto &e : entries)
        EXPECT_FALSE(e.cons.mentionsLocalState()) << e.cons.str();
}

TEST(SymExec, ReturnedLocalSubstitutedIntoRet)
{
    // `status` is local, but [0] == status transfers its constraints.
    auto entries = summarize(R"(
int f(struct d *dev) {
    int status = pm_get(dev);
    if (status < 0)
        return status;
    return 0;
}
)",
                             "f", kDpmSpec);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].cons.str(), "[0] < 0");
    EXPECT_EQ(entries[1].cons.str(), "[0] == 0");
}

TEST(SymExec, ReassignedVariableTracked)
{
    // Multiple static assignments are precise per path (the SSA
    // advantage of Section 6.6).
    auto entries = summarize(R"(
int f(int a) {
    int x = 1;
    x = 2;
    return x;
}
)",
                             "f");
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_TRUE(entries[0].ret.equals(Expr::intConst(2)));
}

TEST(SymExec, FieldLoadsAreStableAtoms)
{
    auto entries = summarize(
        "int f(struct d *p) { if (p->state > 0) return 1; "
        "return 0; }",
        "f");
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].cons.str(), "[p].state > 0 && [0] == 1");
}

TEST(SymExec, RandomIsUnconstrained)
{
    auto entries = summarize(
        "int f(int a, int b) { int x = a + b; if (x > 0) return 1; "
        "return 0; }",
        "f");
    // The nondet result's condition is projected away; both paths have
    // only the return-value constraint.
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].cons.str(), "[0] == 1");
    EXPECT_EQ(entries[1].cons.str(), "[0] == 0");
}

TEST(SymExec, BooleanVarBranchKeepsPrecision)
{
    // `ok` holds a comparison; branching on it must reuse the
    // comparison, not lose it as an opaque integer.
    auto entries = summarize(
        "int f(int a) { int ok = a > 0; if (ok) return 1; return 0; }",
        "f");
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].cons.str(), "[a] > 0 && [0] == 1");
}

TEST(SymExec, NegatedBooleanVarBranch)
{
    // `!ok` flips the branch targets during lowering, so path order may
    // differ; both constraint shapes must be present.
    auto entries = summarize(
        "int f(int a) { int ok = a > 0; if (!ok) return 1; return 0; }",
        "f");
    ASSERT_EQ(entries.size(), 2u);
    std::set<std::string> cons{entries[0].cons.str(),
                               entries[1].cons.str()};
    EXPECT_TRUE(cons.count("[a] <= 0 && [0] == 1"));
    EXPECT_TRUE(cons.count("[a] > 0 && [0] == 0"));
}

TEST(SymExec, SubcaseCapTruncates)
{
    std::string spec = "summary multi(a) -> int {\n";
    for (int i = 0; i < 8; i++) {
        spec += "  entry { cons: [0] == " + std::to_string(i) +
                "; return: " + std::to_string(i) + "; }\n";
    }
    spec += "}\n";
    ir::Module m = frontend::compile(
        "int f(int a) { int x = multi(a); int y = multi(x); "
        "return 0; }");
    summary::SummaryDb db;
    summary::loadSpecsInto(spec, db);
    smt::Solver solver;
    TreeExecOptions opts;
    opts.max_subcases = 5;
    auto result = executeFunctionTree(*m.find("f"), db, solver, opts);
    EXPECT_TRUE(result.truncated);
    ASSERT_EQ(result.completed.size(), 1u);  // straight-line: one path
    EXPECT_LE(result.completed[0].entries.size(), 5u);
}

TEST(SymExec, UnknownCalleeIsUnconstrained)
{
    auto entries = summarize(
        "int f(struct d *p) { int v = mystery(p); if (v) return 1; "
        "return 0; }",
        "f");
    EXPECT_EQ(entries.size(), 2u);
    for (const auto &e : entries)
        EXPECT_TRUE(e.changes.empty());
}

TEST(SymExec, VoidFunctionHasEmptyReturn)
{
    auto entries =
        summarize("void f(struct d *dev) { pm_get(dev); }", "f",
                  kDpmSpec);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_TRUE(entries[0].ret.empty());
    EXPECT_TRUE(entries[0].cons.isTrue());
}

TEST(SymExec, OriginRecordsChangeLines)
{
    auto entries = summarize("int f(struct d *dev) {\n"
                             "    pm_get(dev);\n"
                             "    return 0;\n"
                             "}",
                             "f", kDpmSpec);
    ASSERT_EQ(entries.size(), 1u);
    ASSERT_EQ(entries[0].origin.change_lines.size(), 1u);
    EXPECT_EQ(entries[0].origin.change_lines[0], 2);
    EXPECT_EQ(entries[0].origin.return_line, 3);
}

TEST(SymExec, LoopBodyRefcountCountedOncePerUnroll)
{
    auto entries = summarize(R"(
int f(struct d *dev, int n) {
    int i = 0;
    while (i < n) {
        pm_get(dev);
        i = i + 1;
    }
    return 0;
}
)",
                             "f", kDpmSpec);
    // Paths: skip the loop (0 changes) or execute once (+1).
    int zero = 0, one = 0;
    for (const auto &e : entries) {
        if (e.changes.empty())
            zero++;
        else if (e.changes.begin()->second == 1)
            one++;
    }
    EXPECT_GE(zero, 1);
    EXPECT_GE(one, 1);
}

TEST(ProjectLocals, EqualitySubstitution)
{
    Formula cons = Formula::conj(
        {Formula::lit(Expr::cmp(Pred::Ge, Expr::local("v"),
                                Expr::intConst(0))),
         Formula::lit(
             Expr::cmp(Pred::Eq, Expr::ret(), Expr::local("v")))});
    EXPECT_EQ(projectLocals(cons).str(), "[0] >= 0");
}

TEST(ProjectLocals, UnboundLocalsDropped)
{
    Formula cons = Formula::conj(
        {Formula::lit(Expr::cmp(Pred::Gt, Expr::local("v"),
                                Expr::intConst(0))),
         Formula::lit(
             Expr::cmp(Pred::Ne, Expr::arg("a"), Expr::null()))});
    EXPECT_EQ(projectLocals(cons).str(), "[a] != 0");
}

TEST(ProjectLocals, ChainedEqualities)
{
    // v == w, w == [a]: both locals resolve to [a].
    Formula cons = Formula::conj(
        {Formula::lit(Expr::cmp(Pred::Eq, Expr::local("v"),
                                Expr::local("w"))),
         Formula::lit(
             Expr::cmp(Pred::Eq, Expr::local("w"), Expr::arg("a"))),
         Formula::lit(Expr::cmp(Pred::Gt, Expr::local("v"),
                                Expr::intConst(0)))});
    EXPECT_EQ(projectLocals(cons).str(), "[a] > 0");
}

TEST(ProjectLocals, DisjunctionEqualitiesNotGlobal)
{
    // An equality inside a disjunct must not be used as a global
    // substitution; the local literal is dropped per-branch instead.
    Formula eq_in_or = Formula::disj(
        {Formula::lit(Expr::cmp(Pred::Eq, Expr::local("v"),
                                Expr::intConst(0))),
         Formula::lit(
             Expr::cmp(Pred::Eq, Expr::arg("a"), Expr::intConst(1)))});
    Formula cons = Formula::conj(
        {eq_in_or, Formula::lit(Expr::cmp(Pred::Gt, Expr::local("v"),
                                          Expr::intConst(5)))});
    Formula out = projectLocals(cons);
    // Everything mentioning v weakens to true.
    EXPECT_TRUE(out.isTrue());
}

} // anonymous namespace
} // namespace rid::analysis
