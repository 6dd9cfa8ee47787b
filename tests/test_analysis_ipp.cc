/**
 * @file
 * Unit tests for inconsistent path pair checking (analysis/ipp.h).
 */

#include <gtest/gtest.h>

#include "analysis/ipp.h"

namespace rid::analysis {
namespace {

using smt::Expr;
using smt::Formula;
using smt::Pred;

summary::SummaryEntry
entry(Formula cons, int pm_delta, Expr ret)
{
    summary::SummaryEntry e;
    e.cons = std::move(cons);
    if (pm_delta != 0)
        e.changes[Expr::field(Expr::arg("dev"), "pm")] = pm_delta;
    e.ret = std::move(ret);
    return e;
}

Formula
retEq(int64_t v)
{
    return Formula::lit(
        Expr::cmp(Pred::Eq, Expr::ret(), Expr::intConst(v)));
}

Formula
retLt(int64_t v)
{
    return Formula::lit(
        Expr::cmp(Pred::Lt, Expr::ret(), Expr::intConst(v)));
}

TEST(Ipp, OverlappingDifferentChangesReported)
{
    smt::Solver solver;
    auto result = checkAndMerge(
        "f", {entry(retEq(0), 1, Expr::intConst(0)),
              entry(retEq(0), 0, Expr::intConst(0))},
        solver);
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].function, "f");
    EXPECT_EQ(result.reports[0].refcount, "[dev].pm");
    // One entry is dropped, one survives.
    EXPECT_EQ(result.entries.size(), 1u);
}

TEST(Ipp, DisjointConstraintsAreConsistent)
{
    smt::Solver solver;
    auto result = checkAndMerge(
        "f", {entry(retLt(0), 1, Expr::ret()),
              entry(retEq(0), 0, Expr::intConst(0))},
        solver);
    EXPECT_TRUE(result.reports.empty());
    EXPECT_EQ(result.entries.size(), 2u);
}

TEST(Ipp, SameChangesMergeWithDisjunction)
{
    // [0] >= 0 and [0] <= 0 overlap (at 0) and carry the same changes:
    // they merge into one entry with the disjoined constraint.
    smt::Solver solver;
    Formula ge = Formula::lit(
        Expr::cmp(Pred::Ge, Expr::ret(), Expr::intConst(0)));
    Formula le = Formula::lit(
        Expr::cmp(Pred::Le, Expr::ret(), Expr::intConst(0)));
    auto result = checkAndMerge("f",
                                {entry(ge, 1, Expr::intConst(0)),
                                 entry(le, 1, Expr::ret())},
                                solver);
    EXPECT_TRUE(result.reports.empty());
    ASSERT_EQ(result.entries.size(), 1u);
    EXPECT_EQ(result.entries[0].cons.kind(), smt::FormulaKind::Or);
    EXPECT_EQ(result.entries[0].changes.begin()->second, 1);
    // The differing return expressions collapse to the opaque [0].
    EXPECT_TRUE(result.entries[0].ret.equals(Expr::ret()));
}

TEST(Ipp, MergeWithTopConstraintFoldsToTop)
{
    // Merging with an unconstrained entry folds the disjunction away;
    // the result must still be a single entry with cons == true.
    smt::Solver solver;
    auto result = checkAndMerge(
        "f", {entry(retEq(0), 1, Expr::intConst(0)),
              entry(Formula::top(), 1, Expr::ret())},
        solver);
    EXPECT_TRUE(result.reports.empty());
    ASSERT_EQ(result.entries.size(), 1u);
    EXPECT_TRUE(result.entries[0].cons.isTrue());
}

TEST(Ipp, MultipleRefcountsEachReported)
{
    smt::Solver solver;
    summary::SummaryEntry a;
    a.cons = Formula::top();
    a.changes[Expr::field(Expr::arg("dev"), "pm")] = 1;
    a.changes[Expr::field(Expr::arg("dev"), "rc")] = 1;
    summary::SummaryEntry b;
    b.cons = Formula::top();
    auto result = checkAndMerge("f", {a, b}, solver);
    EXPECT_EQ(result.reports.size(), 2u);
}

TEST(Ipp, ThreeWayChainResolves)
{
    // A consistent-with-B, B inconsistent-with-C: after dropping, the
    // set converges with no overlapping inconsistent pair left.
    smt::Solver solver;
    auto result = checkAndMerge(
        "f",
        {entry(retEq(0), 1, Expr::intConst(0)),
         entry(retEq(0), 1, Expr::intConst(0)),
         entry(retEq(0), 0, Expr::intConst(0))},
        solver);
    EXPECT_GE(result.reports.size(), 1u);
    // Surviving entries must be pairwise consistent.
    for (size_t i = 0; i < result.entries.size(); i++) {
        for (size_t j = i + 1; j < result.entries.size(); j++) {
            bool overlap = solver.isSat(result.entries[i].cons.land(
                result.entries[j].cons));
            if (overlap) {
                EXPECT_TRUE(summary::SummaryEntry::sameChanges(
                    result.entries[i], result.entries[j]));
            }
        }
    }
}

TEST(Ipp, ReportCarriesConstraintsAndDeltas)
{
    smt::Solver solver;
    summary::SummaryEntry a = entry(retEq(0), 1, Expr::intConst(0));
    a.origin.change_lines = {10};
    a.origin.return_line = 12;
    summary::SummaryEntry b = entry(retEq(0), 0, Expr::intConst(0));
    b.origin.return_line = 20;
    auto result = checkAndMerge("f", {a, b}, solver);
    ASSERT_EQ(result.reports.size(), 1u);
    const BugReport &r = result.reports[0];
    EXPECT_TRUE((r.delta_a == 1 && r.delta_b == 0) ||
                (r.delta_a == 0 && r.delta_b == 1));
    EXPECT_NE(r.cons_a, "");
    std::string text = r.str();
    EXPECT_NE(text.find("[dev].pm"), std::string::npos);
    EXPECT_NE(text.find("f:"), std::string::npos);
}

TEST(Ipp, EmptyInputYieldsEmptyResult)
{
    smt::Solver solver;
    auto result = checkAndMerge("f", {}, solver);
    EXPECT_TRUE(result.reports.empty());
    EXPECT_TRUE(result.entries.empty());
}

TEST(Ipp, SingleEntryNeverReported)
{
    smt::Solver solver;
    auto result = checkAndMerge(
        "f", {entry(Formula::top(), 1, Expr::intConst(0))}, solver);
    EXPECT_TRUE(result.reports.empty());
    EXPECT_EQ(result.entries.size(), 1u);
}

TEST(Ipp, ChangesOnDifferentObjectsNoCancellation)
{
    // +1 on dev.pm in one entry and +1 on other.pm in the second: the
    // refcounts are different objects, so BOTH count as inconsistent.
    smt::Solver solver;
    summary::SummaryEntry a;
    a.cons = Formula::top();
    a.changes[Expr::field(Expr::arg("dev"), "pm")] = 1;
    summary::SummaryEntry b;
    b.cons = Formula::top();
    b.changes[Expr::field(Expr::arg("other"), "pm")] = 1;
    auto result = checkAndMerge("f", {a, b}, solver);
    EXPECT_EQ(result.reports.size(), 2u);
}

} // anonymous namespace
} // namespace rid::analysis
