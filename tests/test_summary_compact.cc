/**
 * @file
 * Tests for bottom-up summary compaction (summary/compact.h), the
 * instantiation cache (summary/inst_cache.h) and the IPP drop choice
 * (analysis/ipp.h, IppOptions).
 */

#include <gtest/gtest.h>

#include "analysis/ipp.h"
#include "core/rid.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "obs/budget.h"
#include "smt/solver.h"
#include "summary/compact.h"
#include "summary/inst_cache.h"
#include "summary/spec.h"
#include "summary/summary.h"

namespace rid::summary {
namespace {

using smt::Expr;
using smt::Formula;
using smt::Pred;

SummaryEntry
entryWith(Formula cons, std::map<std::string, int> changes, Expr ret)
{
    SummaryEntry e;
    e.cons = std::move(cons);
    for (const auto &[field, delta] : changes)
        e.changes[Expr::field(Expr::arg("d"), field)] = delta;
    e.ret = std::move(ret);
    return e;
}

Formula
argCmp(Pred p, int k)
{
    return Formula::lit(Expr::cmp(p, Expr::arg("a"), Expr::intConst(k)));
}

FunctionSummary
summaryOf(std::vector<SummaryEntry> entries)
{
    FunctionSummary s;
    s.function = "f";
    s.params = {"d", "a"};
    s.entries = std::move(entries);
    return s;
}

TEST(SummaryCompact, MergesIndistinguishableEntriesAndProvesValidity)
{
    // Two entries with identical effects whose constraints cover the
    // whole input space: (a > 0) v (a <= 0). The merge is provably
    // valid, so the disjunction collapses to top.
    SummaryEntry e1 = entryWith(argCmp(Pred::Gt, 0), {{"pm", 1}},
                                Expr::intConst(0));
    e1.origin.change_lines = {3};
    SummaryEntry e2 = entryWith(argCmp(Pred::Le, 0), {{"pm", 1}},
                                Expr::intConst(0));
    e2.origin.change_lines = {7};
    FunctionSummary s = summaryOf({e1, e2});

    smt::Solver solver;
    CompactionStats stats = compactSummary(s, solver);
    EXPECT_EQ(stats.merged, 1u);
    EXPECT_EQ(stats.proven_top, 1u);
    ASSERT_EQ(s.entries.size(), 1u);
    EXPECT_TRUE(s.entries[0].cons.isTrue());
    // Effects and origin provenance of both branches survive.
    EXPECT_EQ(s.entries[0].changes.size(), 1u);
    ASSERT_EQ(s.entries[0].origin.change_lines.size(), 2u);
    EXPECT_EQ(s.entries[0].origin.change_lines[0], 3);
    EXPECT_EQ(s.entries[0].origin.change_lines[1], 7);
    EXPECT_EQ(s.entries[0].origin.path_index, -1);
}

TEST(SummaryCompact, KeepsDisjunctionWhenCoverageNotProvable)
{
    // (a > 5) v (a < 0) does not cover a = 3: the negation is
    // satisfiable, so the merged constraint keeps the disjunction.
    SummaryEntry e1 = entryWith(argCmp(Pred::Gt, 5), {{"pm", 1}}, Expr());
    SummaryEntry e2 = entryWith(argCmp(Pred::Lt, 0), {{"pm", 1}}, Expr());
    FunctionSummary s = summaryOf({e1, e2});

    smt::Solver solver;
    CompactionStats stats = compactSummary(s, solver);
    EXPECT_EQ(stats.merged, 1u);
    EXPECT_EQ(stats.proven_top, 0u);
    ASSERT_EQ(s.entries.size(), 1u);
    EXPECT_FALSE(s.entries[0].cons.isTrue());
    // The merged constraint is the disjunction of the group, so it must
    // admit both original branches and still exclude the gap.
    EXPECT_EQ(smt::SatResult::Sat,
              solver.check(s.entries[0].cons.land(argCmp(Pred::Gt, 5))));
    EXPECT_EQ(smt::SatResult::Sat,
              solver.check(s.entries[0].cons.land(argCmp(Pred::Lt, 0))));
    EXPECT_EQ(smt::SatResult::Unsat,
              solver.check(s.entries[0].cons.land(
                  argCmp(Pred::Eq, 3))));
}

TEST(SummaryCompact, BudgetExhaustionKeepsDisjunction)
{
    // An exhausted solver budget answers Unknown; only a definite Unsat
    // of the negation may collapse the merged constraint to top, so the
    // compaction must conservatively keep the disjunction.
    SummaryEntry e1 = entryWith(argCmp(Pred::Gt, 0), {{"pm", 1}}, Expr());
    SummaryEntry e2 = entryWith(argCmp(Pred::Le, 0), {{"pm", 1}}, Expr());
    FunctionSummary s = summaryOf({e1, e2});

    obs::Budget budget(nullptr, 0, /*fuel=*/1);
    smt::Solver exhausted;
    exhausted.attachBudget(&budget);
    // Burn the fuel so the compaction-time validity proof gets Unknown.
    exhausted.check(argCmp(Pred::Gt, 0));
    CompactionStats stats = compactSummary(s, exhausted);
    EXPECT_EQ(stats.merged, 1u);
    EXPECT_EQ(stats.proven_top, 0u);
    ASSERT_EQ(s.entries.size(), 1u);
    EXPECT_FALSE(s.entries[0].cons.isTrue());
}

TEST(SummaryCompact, DoesNotMergeDistinguishableEntries)
{
    // Different deltas, different return values or different stores are
    // all caller-visible: nothing may merge, and the summary must come
    // out byte-identical (serialization round-trip check).
    SummaryEntry e1 = entryWith(argCmp(Pred::Gt, 0), {{"pm", 1}},
                                Expr::intConst(0));
    SummaryEntry e2 = entryWith(argCmp(Pred::Le, 0), {{"pm", -1}},
                                Expr::intConst(0));
    SummaryEntry e3 = entryWith(argCmp(Pred::Eq, 7), {{"pm", 1}},
                                Expr::intConst(1));
    SummaryEntry e4 = entryWith(argCmp(Pred::Eq, 9), {{"pm", 1}},
                                Expr::intConst(0));
    e4.stores.insert(Expr::field(Expr::arg("d"), "flag"));
    FunctionSummary s = summaryOf({e1, e2, e3, e4});
    std::string before = serializeSummary(s);

    smt::Solver solver;
    CompactionStats stats = compactSummary(s, solver);
    EXPECT_EQ(stats.merged, 0u);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(serializeSummary(s), before);
}

TEST(SummaryCompact, DropsUnsatisfiableEntries)
{
    SummaryEntry dead = entryWith(Formula::bottom(), {{"pm", 1}}, Expr());
    SummaryEntry live = entryWith(Formula::top(), {{"pm", 1}}, Expr());
    FunctionSummary s = summaryOf({dead, live});

    smt::Solver solver;
    CompactionStats stats = compactSummary(s, solver);
    EXPECT_EQ(stats.dropped, 1u);
    ASSERT_EQ(s.entries.size(), 1u);
    EXPECT_TRUE(s.entries[0].cons.isTrue());
}

TEST(SummaryCompact, CompactedSummaryRoundTripsThroughSpecGrammar)
{
    // The durable store and exportSummaries() both serialize compacted
    // summaries; a disjunctive constraint must survive the round trip.
    SummaryEntry e1 = entryWith(argCmp(Pred::Gt, 5), {{"pm", 1}}, Expr());
    SummaryEntry e2 = entryWith(argCmp(Pred::Lt, 0), {{"pm", 1}}, Expr());
    FunctionSummary s = summaryOf({e1, e2});
    smt::Solver solver;
    compactSummary(s, solver);
    ASSERT_EQ(s.entries.size(), 1u);

    SummaryDb db;
    loadSpecsInto(serializeSummary(s), db);
    const FunctionSummary *back = db.find("f");
    ASSERT_NE(back, nullptr);
    ASSERT_EQ(back->entries.size(), 1u);
    EXPECT_EQ(back->entries[0].cons.str(), s.entries[0].cons.str());
}

TEST(InstCache, LookupInsertHitAndStats)
{
    InstCache cache;
    InstCache::Key key;
    key.summary_fp = 0x1234;
    key.entry_index = 2;
    key.actuals = {Expr::arg("dev")};
    key.slot = Expr::temp("c0_1_0");
    key.wants_result = true;

    EXPECT_FALSE(cache.lookup(key).has_value());
    CallInstantiation inst;
    inst.cons = argCmp(Pred::Gt, 0);
    inst.changes[Expr::field(Expr::arg("dev"), "pm")] = 1;
    inst.result = Expr::temp("c0_1_0");
    cache.insert(key, inst);

    auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cons.str(), inst.cons.str());
    EXPECT_EQ(hit->changes.size(), 1u);
    EXPECT_TRUE(hit->result.equals(inst.result));

    InstCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(InstCache, KeyComponentsAreDiscriminating)
{
    InstCache cache;
    InstCache::Key key;
    key.summary_fp = 1;
    key.entry_index = 0;
    key.actuals = {Expr::arg("dev")};
    key.slot = Expr::temp("c0_0_0");
    key.wants_result = false;
    cache.insert(key, CallInstantiation{});

    // Every varied component must miss: a different callee, entry,
    // actual list, result slot or result-consumption flag is a
    // different instantiation.
    InstCache::Key other = key;
    other.summary_fp = 2;
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = key;
    other.entry_index = 1;
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = key;
    other.actuals = {Expr::arg("intf")};
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = key;
    other.slot = Expr::temp("c1_0_0");
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = key;
    other.wants_result = true;
    EXPECT_FALSE(cache.lookup(other).has_value());
    EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(InstCache, EvictsLeastRecentlyUsedWithinCapacity)
{
    InstCache::Options opts;
    opts.capacity = 16;  // one slot per shard
    InstCache cache(opts);
    std::vector<InstCache::Key> keys;
    for (int i = 0; i < 64; i++) {
        InstCache::Key key;
        key.summary_fp = 0x9e3779b97f4a7c15ULL * (i + 1);
        key.entry_index = static_cast<size_t>(i);
        cache.insert(key, CallInstantiation{});
        keys.push_back(key);
    }
    InstCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.insertions, 64u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.entries, cache.capacity());
}

TEST(IppDeterministicDrop, PrefersDroppingTheCoveredEntry)
{
    // Entry 0's only counter (pm) reappears in entry 1, while entry 1
    // additionally carries the sole witness for rc: the drop must
    // sacrifice entry 0 so the surviving summary keeps both counters.
    std::vector<SummaryEntry> entries;
    entries.push_back(entryWith(Formula::top(), {{"pm", 1}}, Expr()));
    entries.push_back(
        entryWith(Formula::top(), {{"pm", 2}, {"rc", 5}}, Expr()));
    smt::Solver solver;
    auto ipp = analysis::checkAndMerge("f", std::move(entries), solver);
    ASSERT_EQ(ipp.entries.size(), 1u);
    EXPECT_EQ(ipp.entries[0].changes.size(), 2u);
}

TEST(CompactionDifferential, ReportsAndDiagnosticsAreIdentical)
{
    // End-to-end precision/recall preservation smoke: the calibrated
    // corpus must report the same bugs (byte-identical, same order)
    // with compaction off and on. The determinism suite pins the same
    // property across thread counts, and TreeExecDifferential the
    // instantiation cache against none.
    auto corpus =
        kernel::generateCorpus(kernel::CorpusMix::paperCalibrated(0.01));
    auto runWith = [&](bool compact) {
        analysis::AnalyzerOptions opts;
        opts.compact_summaries = compact;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        for (const auto &file : corpus.files)
            tool.addSource(file.text);
        RunResult result = tool.run();
        std::string digest;
        for (const auto &r : result.reports)
            digest += r.str() + "\n";
        digest += "--- diagnostics ---\n";
        for (const auto &d : result.diagnostics)
            digest += d.function + " " +
                      analysis::fnStatusName(d.status) + " " + d.reason +
                      "\n";
        return digest;
    };
    std::string baseline = runWith(false);
    EXPECT_FALSE(baseline.empty());
    EXPECT_EQ(runWith(true), baseline);
}

TEST(CompactionDifferential, CompactionShrinksWrapperSummaries)
{
    // A four-way branch over one get/put pattern produces entries that
    // differ only in constraint; the compacted summary must collapse
    // them and callers must instantiate fewer entries.
    const char *src = R"(
int multi(struct device *dev, int a) {
    int r;
    r = pm_runtime_get_sync(dev);
    if (r < 0)
        return r;
    if (a > 0)
        r = 1;
    if (a > 10)
        r = 2;
    pm_runtime_put(dev);
    return 0;
}
int caller(struct device *dev, int a) {
    return multi(dev, a);
}
)";
    auto runWith = [&](bool compact) {
        analysis::AnalyzerOptions opts;
        opts.compact_summaries = compact;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.addSource(src);
        return tool.run();
    };
    RunResult off = runWith(false);
    RunResult on = runWith(true);
    EXPECT_EQ(off.reports.size(), on.reports.size());
    EXPECT_GT(on.stats.summary_entries_compacted, 0u);
    // Callers instantiate the compacted (smaller) summary.
    EXPECT_LT(on.stats.entries_instantiated,
              off.stats.entries_instantiated);
}

} // namespace
} // namespace rid::summary
