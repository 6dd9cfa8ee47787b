/**
 * @file
 * Unit and property tests for the satisfiability solver (smt/solver.h).
 *
 * The property suite generates random small formulas over a bounded
 * variable/constant domain and checks the solver's verdict against
 * brute-force enumeration — the solver must never contradict the oracle
 * (Unknown is allowed, Sat/Unsat must be exact).
 */

#include <gtest/gtest.h>

#include <random>

#include "smt/solver.h"

namespace rid::smt {
namespace {

Formula
lit(const char *a, Pred p, int64_t k)
{
    return Formula::lit(
        Expr::cmp(p, Expr::arg(a), Expr::intConst(k)));
}

Formula
lit2(const char *a, Pred p, const char *b)
{
    return Formula::lit(Expr::cmp(p, Expr::arg(a), Expr::arg(b)));
}

TEST(Solver, TrueIsSat)
{
    Solver s;
    EXPECT_EQ(s.check(Formula::top()), SatResult::Sat);
}

TEST(Solver, FalseIsUnsat)
{
    Solver s;
    EXPECT_EQ(s.check(Formula::bottom()), SatResult::Unsat);
}

TEST(Solver, SingleLiteralSat)
{
    Solver s;
    EXPECT_EQ(s.check(lit("x", Pred::Gt, 5)), SatResult::Sat);
}

TEST(Solver, ContradictionUnsat)
{
    Solver s;
    Formula f = lit("x", Pred::Gt, 5).land(lit("x", Pred::Lt, 3));
    EXPECT_EQ(s.check(f), SatResult::Unsat);
}

TEST(Solver, IntegerGapUnsat)
{
    // 0 < x < 1 has no integer solution (a real-shadow trap).
    Solver s;
    Formula f = lit("x", Pred::Gt, 0).land(lit("x", Pred::Lt, 1));
    EXPECT_EQ(s.check(f), SatResult::Unsat);
}

TEST(Solver, TightBoundsSat)
{
    Solver s;
    Formula f = lit("x", Pred::Ge, 3).land(lit("x", Pred::Le, 3));
    EXPECT_EQ(s.check(f), SatResult::Sat);
}

TEST(Solver, EqualityPropagation)
{
    Solver s;
    // x == y, y == 3, x != 3 -> unsat
    Formula f = Formula::conj({lit2("x", Pred::Eq, "y"),
                               lit("y", Pred::Eq, 3),
                               lit("x", Pred::Ne, 3)});
    EXPECT_EQ(s.check(f), SatResult::Unsat);
}

TEST(Solver, DisequalitySplit)
{
    Solver s;
    // x >= 0, x <= 1, x != 0, x != 1 -> unsat (needs Ne splitting)
    Formula f = Formula::conj({lit("x", Pred::Ge, 0),
                               lit("x", Pred::Le, 1),
                               lit("x", Pred::Ne, 0),
                               lit("x", Pred::Ne, 1)});
    EXPECT_EQ(s.check(f), SatResult::Unsat);
}

TEST(Solver, DisequalityLeavesRoom)
{
    Solver s;
    Formula f = Formula::conj({lit("x", Pred::Ge, 0),
                               lit("x", Pred::Le, 2),
                               lit("x", Pred::Ne, 0),
                               lit("x", Pred::Ne, 2)});
    EXPECT_EQ(s.check(f), SatResult::Sat);  // x = 1
}

TEST(Solver, TransitiveChainUnsat)
{
    Solver s;
    // x < y < z < x: negative cycle.
    Formula f = Formula::conj({lit2("x", Pred::Lt, "y"),
                               lit2("y", Pred::Lt, "z"),
                               lit2("z", Pred::Lt, "x")});
    EXPECT_EQ(s.check(f), SatResult::Unsat);
}

TEST(Solver, TransitiveChainSat)
{
    Solver s;
    Formula f = Formula::conj({lit2("x", Pred::Lt, "y"),
                               lit2("y", Pred::Lt, "z"),
                               lit2("x", Pred::Lt, "z")});
    EXPECT_EQ(s.check(f), SatResult::Sat);
}

TEST(Solver, NonStrictCycleIsSat)
{
    Solver s;
    // x <= y <= z <= x forces equality but stays satisfiable.
    Formula f = Formula::conj({lit2("x", Pred::Le, "y"),
                               lit2("y", Pred::Le, "z"),
                               lit2("z", Pred::Le, "x")});
    EXPECT_EQ(s.check(f), SatResult::Sat);
}

TEST(Solver, DisjunctionSat)
{
    Solver s;
    Formula f = lit("x", Pred::Eq, 1).lor(lit("x", Pred::Eq, 2));
    EXPECT_EQ(s.check(f.land(lit("x", Pred::Gt, 1))), SatResult::Sat);
}

TEST(Solver, DisjunctionAllBranchesUnsat)
{
    Solver s;
    Formula f = lit("x", Pred::Eq, 1).lor(lit("x", Pred::Eq, 2));
    EXPECT_EQ(s.check(f.land(lit("x", Pred::Gt, 5))), SatResult::Unsat);
}

TEST(Solver, NestedDisjunctionsDistribute)
{
    Solver s;
    // (x=1 | x=2) & (y=1 | y=2) & x > y  -> x=2, y=1
    Formula f = Formula::conj(
        {lit("x", Pred::Eq, 1).lor(lit("x", Pred::Eq, 2)),
         lit("y", Pred::Eq, 1).lor(lit("y", Pred::Eq, 2)),
         lit2("x", Pred::Gt, "y")});
    EXPECT_EQ(s.check(f), SatResult::Sat);
}

TEST(Solver, NegationViaNnf)
{
    Solver s;
    Formula f = Formula::negation(lit("x", Pred::Gt, 0))
                    .land(lit("x", Pred::Gt, 0));
    EXPECT_EQ(s.check(f), SatResult::Unsat);
}

TEST(Solver, PaperExampleOverlap)
{
    // The two inconsistent entries of foo() (Figure 2): both have
    // [dev] != null && [0] == 0, so their conjunction is satisfiable.
    Solver s;
    Formula e1 = Formula::conj(
        {Formula::lit(Expr::cmp(Pred::Ne, Expr::arg("dev"),
                                Expr::null())),
         Formula::lit(
             Expr::cmp(Pred::Eq, Expr::ret(), Expr::intConst(0)))});
    Formula e2 = e1;
    EXPECT_EQ(s.check(e1.land(e2)), SatResult::Sat);
}

TEST(Solver, ErrorSuccessConstraintsDisjoint)
{
    // [0] < 0 (error entry) vs [0] == 0 (success entry): unsat, the
    // reason Figure 10-style code yields no IPP.
    Solver s;
    Formula err = Formula::lit(
        Expr::cmp(Pred::Lt, Expr::ret(), Expr::intConst(0)));
    Formula ok = Formula::lit(
        Expr::cmp(Pred::Eq, Expr::ret(), Expr::intConst(0)));
    EXPECT_EQ(s.check(err.land(ok)), SatResult::Unsat);
}

TEST(Solver, FieldAtomsAreIndependentVariables)
{
    Solver s;
    Formula f = Formula::conj(
        {Formula::lit(Expr::cmp(Pred::Eq,
                                Expr::field(Expr::arg("d"), "a"),
                                Expr::intConst(1))),
         Formula::lit(Expr::cmp(Pred::Eq,
                                Expr::field(Expr::arg("d"), "b"),
                                Expr::intConst(2)))});
    EXPECT_EQ(s.check(f), SatResult::Sat);
}

TEST(Solver, StatsAccumulate)
{
    Solver s;
    s.check(lit("x", Pred::Gt, 0));
    s.check(lit("x", Pred::Lt, 0));
    EXPECT_EQ(s.stats().queries, 2u);
    EXPECT_GE(s.stats().theory_checks, 2u);
}

TEST(Solver, BranchBudgetYieldsUnknown)
{
    Solver::Options opts;
    opts.max_branches = 1;
    Solver s(opts);
    std::vector<Formula> clauses;
    for (int v = 0; v < 6; v++) {
        std::string name = "v" + std::to_string(v);
        clauses.push_back(lit(name.c_str(), Pred::Eq, 0)
                              .lor(lit(name.c_str(), Pred::Eq, 1)));
    }
    SatResult r = s.check(Formula::conj(clauses));
    EXPECT_NE(r, SatResult::Unsat);  // must not claim unsat on a budget
}

TEST(Solver, LiteralOutsideLinearArithmeticKeepsSiblingConstraints)
{
    // x > 0 && x < 0 && ((a == b) == (c == d) || y > 0) is Unsat. The
    // Or's first child is not linear, so it is checked as unconstrained
    // against the collected literals; the second child must still see
    // x > 0 and x < 0.
    Formula nonlinear = Formula::lit(Expr::cmp(
        Pred::Eq, Expr::cmp(Pred::Eq, Expr::arg("a"), Expr::arg("b")),
        Expr::cmp(Pred::Eq, Expr::arg("c"), Expr::arg("d"))));
    Formula alt = nonlinear.lor(lit("y", Pred::Gt, 0));
    Formula f = Formula::conj(
        {lit("x", Pred::Gt, 0), lit("x", Pred::Lt, 0), alt});

    Solver s;
    EXPECT_EQ(s.check(f), SatResult::Unsat);

    Solver chained;
    CondChain chain = CondChain()
                          .extended(nullptr, lit("x", Pred::Gt, 0))
                          .extended(nullptr, lit("x", Pred::Lt, 0))
                          .extended(nullptr, alt);
    ASSERT_EQ(chain.formula().fingerprint(), f.fingerprint());
    EXPECT_EQ(chained.checkChain(chain), SatResult::Unsat);
}

TEST(Solver, IsSatTreatsUnknownAsSat)
{
    Solver::Options opts;
    opts.max_branches = 1;
    Solver s(opts);
    std::vector<Formula> clauses;
    for (int v = 0; v < 6; v++) {
        std::string name = "v" + std::to_string(v);
        clauses.push_back(lit(name.c_str(), Pred::Eq, 0)
                              .lor(lit(name.c_str(), Pred::Eq, 1)));
    }
    EXPECT_TRUE(s.isSat(Formula::conj(clauses)));
}

TEST(SolverTheory, DirectConjunction)
{
    Solver s;
    VarSpace space;
    std::vector<LinLit> lits;
    auto add = [&](const Expr &cmp) {
        auto l = normalizeCmp(cmp, space);
        ASSERT_TRUE(l.has_value());
        lits.push_back(*l);
    };
    add(Expr::cmp(Pred::Ge, Expr::arg("x"), Expr::intConst(2)));
    add(Expr::cmp(Pred::Le, Expr::arg("x"), Expr::intConst(2)));
    EXPECT_EQ(s.checkConj(lits), SatResult::Sat);
    add(Expr::cmp(Pred::Ne, Expr::arg("x"), Expr::intConst(2)));
    EXPECT_EQ(s.checkConj(lits), SatResult::Unsat);
}

// ---------------------------------------------------------------------
// Property tests: random formulas vs a brute-force oracle.
// ---------------------------------------------------------------------

constexpr int kNumVars = 3;
constexpr int64_t kDomain = 3;   // literal constants drawn from [-3, 3]
// Any satisfiable formula in this fragment (unit coefficients, at most
// kNumVars variables, constants within kDomain) has a model whose values
// stay within kDomain + kNumVars of the constants: a difference chain can
// push a variable at most kNumVars steps past a constant bound. The
// oracle therefore searches the widened box.
constexpr int64_t kOracle = kDomain + kNumVars + 1;

/** Evaluate a formula under a full assignment to kNumVars variables. */
bool
evalFormula(const Formula &f, const std::array<int64_t, kNumVars> &vals)
{
    switch (f.kind()) {
      case FormulaKind::True:
        return true;
      case FormulaKind::False:
        return false;
      case FormulaKind::Lit: {
        const Expr &lit = f.literal();
        auto value = [&](const Expr &e) -> int64_t {
            if (e.kind() == ExprKind::IntConst)
                return e.intValue();
            // Arg atoms named v0..v2.
            int idx = e.name()[1] - '0';
            return vals[static_cast<size_t>(idx)];
        };
        return evalPred(lit.pred(), value(lit.lhs()), value(lit.rhs()));
      }
      case FormulaKind::And:
        for (const auto &c : f.children())
            if (!evalFormula(c, vals))
                return false;
        return true;
      case FormulaKind::Or:
        for (const auto &c : f.children())
            if (evalFormula(c, vals))
                return true;
        return false;
      case FormulaKind::Not:
        return !evalFormula(f.children().front(), vals);
    }
    return false;
}

bool
bruteForceSat(const Formula &f)
{
    std::array<int64_t, kNumVars> vals{};
    for (vals[0] = -kOracle; vals[0] <= kOracle; vals[0]++)
        for (vals[1] = -kOracle; vals[1] <= kOracle; vals[1]++)
            for (vals[2] = -kOracle; vals[2] <= kOracle; vals[2]++)
                if (evalFormula(f, vals))
                    return true;
    return false;
}

Formula
randomFormula(std::mt19937_64 &rng, int depth)
{
    auto randomLit = [&rng]() {
        Pred preds[] = {Pred::Eq, Pred::Ne, Pred::Lt,
                        Pred::Le, Pred::Gt, Pred::Ge};
        Pred p = preds[rng() % 6];
        std::string a = "v" + std::to_string(rng() % kNumVars);
        Expr lhs = Expr::arg(a);
        Expr rhs;
        if (rng() % 2) {
            rhs = Expr::intConst(static_cast<int64_t>(rng() % (2 * kDomain + 1)) -
                                 kDomain);
        } else {
            rhs = Expr::arg("v" + std::to_string(rng() % kNumVars));
        }
        return Formula::lit(Expr::cmp(p, lhs, rhs));
    };
    if (depth == 0)
        return randomLit();
    switch (rng() % 4) {
      case 0:
        return randomLit();
      case 1: {
        std::vector<Formula> kids;
        for (size_t i = 0; i < 2 + rng() % 2; i++)
            kids.push_back(randomFormula(rng, depth - 1));
        return Formula::conj(std::move(kids));
      }
      case 2: {
        std::vector<Formula> kids;
        for (size_t i = 0; i < 2 + rng() % 2; i++)
            kids.push_back(randomFormula(rng, depth - 1));
        return Formula::disj(std::move(kids));
      }
      default:
        return Formula::negation(randomFormula(rng, depth - 1));
    }
}

class SolverPropertyTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SolverPropertyTest, AgreesWithBruteForce)
{
    std::mt19937_64 rng(GetParam());
    Solver solver;
    for (int round = 0; round < 200; round++) {
        Formula f = randomFormula(rng, 3);
        SatResult got = solver.check(f);
        if (got == SatResult::Unknown)
            continue;  // allowed, but Sat/Unsat must be exact
        EXPECT_EQ(got == SatResult::Sat, bruteForceSat(f)) << f.str();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10));

class TheoryPropertyTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(TheoryPropertyTest, ConjunctionsAgreeWithBruteForce)
{
    // Pure conjunction stress: every verdict must be exact (no Unknown
    // in the unit-coefficient fragment).
    std::mt19937_64 rng(GetParam());
    Solver solver;
    for (int round = 0; round < 300; round++) {
        std::vector<Formula> lits;
        size_t n = 2 + rng() % 5;
        for (size_t i = 0; i < n; i++) {
            std::mt19937_64 sub(rng());
            lits.push_back(randomFormula(sub, 0));
        }
        Formula f = Formula::conj(std::move(lits));
        SatResult got = solver.check(f);
        ASSERT_NE(got, SatResult::Unknown) << f.str();
        EXPECT_EQ(got == SatResult::Sat, bruteForceSat(f)) << f.str();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoryPropertyTest,
                         ::testing::Values(11, 12, 13, 14, 15));

} // anonymous namespace
} // namespace rid::smt
