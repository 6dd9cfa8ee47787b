/**
 * @file
 * Step-by-step conformance tests against the paper's worked example
 * (Section 3.3 / Figure 2): the enumeration of foo()'s paths, the
 * subcase structure induced by reg_read()'s two summary entries, the
 * infeasible-subcase pruning, the local-variable projection, and the
 * final function summary after IPP checking — each intermediate
 * artefact matched against the figure.
 */

#include <gtest/gtest.h>

#include "analysis/ipp.h"
#include "analysis/paths.h"
#include "analysis/symexec.h"
#include "frontend/lower.h"
#include "summary/spec.h"

namespace rid {
namespace {

const char *kCalleeSpecs = R"(
summary reg_read(d, reg) -> int {
  entry { cons: [d] != null && [0] >= 0; return: [0]; }
  entry { cons: [0] == -1; return: -1; }
}
summary inc_pmcount(d) -> void {
  entry { cons: [d] != null; change: [d].pm += 1; return: none; }
  entry { cons: [d] == null; return: none; }
}
)";

const char *kFoo = R"(
int foo(struct device *dev) {
    assert(dev != NULL);
    int v = reg_read(dev, 0x54);
    if (v <= 0)
        goto exit;
    inc_pmcount(dev);
exit:
    return 0;
}
)";

struct FooAnalysis
{
    ir::Module module;
    const ir::Function *foo = nullptr;
    summary::SummaryDb db;
    smt::Solver solver;
    analysis::PathEnumResult paths;
    /** completed[i].entries: the summary entries of feasible path i. */
    analysis::TreeExecResult tree;

    FooAnalysis()
    {
        module = frontend::compile(kFoo);
        foo = module.find("foo");
        summary::loadSpecsInto(kCalleeSpecs, db);
        paths = analysis::enumeratePaths(*foo, 100);
        tree = analysis::executeFunctionTree(*foo, db, solver,
                                             analysis::TreeExecOptions{});
    }
};

TEST(PaperFigure2, StepOneEnumeratesExactlyTwoPaths)
{
    FooAnalysis a;
    // p1 (increment) and p2 (skip); the assertion-failure exit is not a
    // path (the paper ignores it too).
    EXPECT_EQ(a.paths.paths.size(), 2u);
    EXPECT_FALSE(a.paths.truncated);
}

TEST(PaperFigure2, StepTwoSubcaseStructure)
{
    FooAnalysis a;
    ASSERT_EQ(a.tree.completed.size(), 2u);

    // Figure 2: the increment path (v > 0) keeps only reg_read's first
    // entry (its second forces v == -1, contradicting v > 0), and
    // inc_pmcount's null entry is killed by the assertion — exactly one
    // feasible subcase with the +1 change.
    // The skip path (v <= 0) splits into two subcases: v == 0 (first
    // reg_read entry) and v == -1 (second entry), neither changing a
    // refcount.
    std::vector<summary::SummaryEntry> with_change, without_change;
    for (const auto &path : a.tree.completed) {
        for (const auto &e : path.entries) {
            if (e.changes.empty())
                without_change.push_back(e);
            else
                with_change.push_back(e);
        }
    }
    ASSERT_EQ(with_change.size(), 1u);
    EXPECT_EQ(without_change.size(), 2u);
    EXPECT_EQ(with_change[0].changes.begin()->first.str(), "[dev].pm");
    EXPECT_EQ(with_change[0].changes.begin()->second, 1);
}

TEST(PaperFigure2, StepTwoProjectionRemovesLocalV)
{
    FooAnalysis a;
    // After the summaries are calculated, conditions on the local v are
    // removed (Section 3.3.3): every entry constraint mentions only
    // [dev] and [0].
    for (const auto &path : a.tree.completed) {
        for (const auto &e : path.entries) {
            EXPECT_FALSE(e.cons.mentionsLocalState()) << e.cons.str();
            for (const auto &lit : e.cons.literals()) {
                bool only_interface = lit.containsIf([](const smt::Expr
                                                            &sub) {
                    return sub.kind() == smt::ExprKind::Local ||
                           sub.kind() == smt::ExprKind::Temp;
                });
                EXPECT_FALSE(only_interface) << lit.str();
            }
        }
    }
}

TEST(PaperFigure2, StepTwoEntriesBindReturnValue)
{
    FooAnalysis a;
    // Every entry in the figure carries [0] == 0 (both paths return 0).
    for (const auto &path : a.tree.completed) {
        for (const auto &e : path.entries) {
            smt::Solver s;
            smt::Formula returns_one = e.cons.land(smt::Formula::lit(
                smt::Expr::cmp(smt::Pred::Eq, smt::Expr::ret(),
                               smt::Expr::intConst(1))));
            EXPECT_EQ(s.check(returns_one), smt::SatResult::Unsat)
                << e.cons.str();
            EXPECT_TRUE(e.ret.equals(smt::Expr::intConst(0)));
        }
    }
}

TEST(PaperFigure2, StepThreeDetectsTheInconsistentPair)
{
    FooAnalysis a;
    std::vector<summary::SummaryEntry> all;
    for (auto &path : a.tree.completed)
        for (auto &e : path.entries)
            all.push_back(e);

    auto result = analysis::checkAndMerge("foo", std::move(all), a.solver);
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].refcount, "[dev].pm");
    // The paper's dashed boxes: +1 under [dev]!=null && [0]==0 versus
    // no change under the same constraint.
    int lo = std::min(result.reports[0].delta_a, result.reports[0].delta_b);
    int hi = std::max(result.reports[0].delta_a, result.reports[0].delta_b);
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 1);
}

TEST(PaperFigure2, FinalSummaryIsConsistentSet)
{
    FooAnalysis a;
    std::vector<summary::SummaryEntry> all;
    for (auto &path : a.tree.completed)
        for (auto &e : path.entries)
            all.push_back(e);
    auto result = analysis::checkAndMerge("foo", std::move(all), a.solver);

    // Whatever survived the drop, the remaining entries must be pairwise
    // consistent: any satisfiable overlap has equal changes.
    for (size_t i = 0; i < result.entries.size(); i++) {
        for (size_t j = i + 1; j < result.entries.size(); j++) {
            if (a.solver.isSat(result.entries[i].cons.land(
                    result.entries[j].cons))) {
                EXPECT_TRUE(summary::SummaryEntry::sameChanges(
                    result.entries[i], result.entries[j]));
            }
        }
    }
}

TEST(PaperSection33, CalleeSummaryShapesMatchFigure2)
{
    FooAnalysis a;
    const auto *reg_read = a.db.find("reg_read");
    ASSERT_NE(reg_read, nullptr);
    ASSERT_EQ(reg_read->entries.size(), 2u);
    EXPECT_TRUE(reg_read->entries[0].changes.empty());
    EXPECT_TRUE(reg_read->entries[1].changes.empty());
    EXPECT_TRUE(reg_read->entries[1].ret.equals(smt::Expr::intConst(-1)));

    const auto *inc = a.db.find("inc_pmcount");
    ASSERT_NE(inc, nullptr);
    ASSERT_EQ(inc->entries.size(), 2u);
    EXPECT_EQ(inc->entries[0].changes.size(), 1u);
    EXPECT_TRUE(inc->entries[1].changes.empty());
}

TEST(PaperSection32, IppDefinitionRequiresSameReturn)
{
    // Two paths with different refcount changes whose return values can
    // never coincide do not form an IPP (condition 4 of Section 3.2) —
    // the essence of the Figure 10 miss, checked at the entry level.
    smt::Solver solver;
    summary::SummaryEntry a, b;
    a.cons = smt::Formula::lit(smt::Expr::cmp(
        smt::Pred::Eq, smt::Expr::ret(), smt::Expr::intConst(0)));
    a.changes[smt::Expr::field(smt::Expr::arg("dev"), "pm")] = 1;
    b.cons = smt::Formula::lit(smt::Expr::cmp(
        smt::Pred::Eq, smt::Expr::ret(), smt::Expr::intConst(1)));
    auto result = analysis::checkAndMerge("irq", {a, b}, solver);
    EXPECT_TRUE(result.reports.empty());
    EXPECT_EQ(result.entries.size(), 2u);
}

TEST(PaperSection31, NegativeCountViolationReportable)
{
    // Characteristic 4: a path pair where one side can drive the count
    // to -1 is a bug no matter which path is intended; the checker
    // reports the -1 vs 0 difference.
    smt::Solver solver;
    summary::SummaryEntry a, b;
    a.cons = smt::Formula::top();
    a.changes[smt::Expr::field(smt::Expr::arg("dev"), "pm")] = -1;
    b.cons = smt::Formula::top();
    auto result = analysis::checkAndMerge("f", {a, b}, solver);
    ASSERT_EQ(result.reports.size(), 1u);
}

} // anonymous namespace
} // namespace rid
