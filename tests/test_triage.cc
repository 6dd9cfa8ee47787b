/**
 * @file
 * Unit tests for the automated triage pass (src/triage): SMT-based
 * refutation verdicts on the paper's Section 6.4 false-positive
 * patterns, the bounded caller-extension search for downstream
 * releases, the tier lattice under fuel exhaustion, deterministic rank
 * assignment, and the provenance tier/rank round trip (journal,
 * explain, diff-runs reclassification).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "core/report_format.h"
#include "core/rid.h"
#include "frontend/lower.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "obs/provenance.h"
#include "summary/spec.h"
#include "triage/triage.h"

namespace rid {
namespace {

/** The Section 6.4 FP patterns plus a Figure 9-style real bug: the
 *  bitmask FP refutes through the modeled `flags & 4` bit test, the
 *  list-op FP through the tracked caller-visible field stores, and the
 *  missing-put bug survives re-derivation. */
const char *kTriageSample = R"(
int fp_bitmask_fn(struct device *dev, int flags) {
    if (flags & 4) {
        pm_runtime_get_noresume(dev);
        mark_async_0(dev);
    }
    return 0;
}
void mark_async_0(struct device *dev);
int fp_listop_fn(struct device *dev, struct list *busy) {
    if (list_empty_0(busy)) {
        pm_runtime_get_noresume(dev);
        busy->head = dev;
        busy->len = busy->len + 1;
    }
    return 0;
}
int list_empty_0(struct list *l);
int tp_missing_put(struct intf *interface) {
    int result;
    result = autopm_get_0(interface);
    if (result)
        goto error;
    result = create_image_0(interface);
    if (result)
        goto error;
    autopm_put_0(interface);
error:
    return result;
}
int create_image_0(struct intf *i);
int autopm_get_0(struct intf *i) {
    int status;
    status = pm_runtime_get_sync(&i->dev);
    if (status < 0)
        pm_runtime_put_sync(&i->dev);
    if (status > 0)
        status = 0;
    return status;
}
void autopm_put_0(struct intf *i);
)";

/** A lock leak whose caller releases downstream: the paper's
 *  hand-triage mitigating circumstance the extension search models. */
const char *kDownstreamReleaseSource = R"(
void lock_holder(struct lk *l) {
    spin_lock(l);
}
void lock_user(struct lk *l) {
    lock_holder(l);
    spin_unlock(l);
}
)";

/** Report-free units to surround a reporting one. */
const char *kCleanUnitA = R"(
int clean_a(int x) {
    if (x > 0)
        return 1;
    return 0;
}
)";
const char *kCleanUnitB = R"(
int clean_b(struct device *dev) {
    return clean_a(3);
}
int clean_a(int x);
)";

/** A second body for fp_bitmask_fn: the arithmetic guard is abstracted
 *  to `random` at every precision, so this body's witness reproduces
 *  where the bit-test body's dissolves. */
const char *kBitmaskArithBody = R"(
int fp_bitmask_fn(struct device *dev, int flags) {
    if (flags + 4) {
        pm_runtime_get_noresume(dev);
        mark_async_0(dev);
    }
    return 0;
}
void mark_async_0(struct device *dev);
)";
const char *kBitmaskTestBody = R"(
int fp_bitmask_fn(struct device *dev, int flags) {
    if (flags & 4) {
        pm_runtime_get_noresume(dev);
        mark_async_0(dev);
    }
    return 0;
}
void mark_async_0(struct device *dev);
)";

RunResult
runUnits(analysis::AnalyzerOptions opts,
         const std::vector<const char *> &units, bool lock_spec = false)
{
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    if (lock_spec)
        tool.loadSpecText(kernel::lockSpecText());
    for (const char *unit : units)
        tool.addSource(unit);
    return tool.run();
}

RunResult
runSample(analysis::AnalyzerOptions opts, const char *source,
          bool lock_spec = false)
{
    return runUnits(opts, {source}, lock_spec);
}

const analysis::BugReport *
reportFor(const RunResult &result, const std::string &fn)
{
    for (const auto &r : result.reports)
        if (r.function == fn)
            return &r;
    return nullptr;
}

TEST(TriageTest, UntriagedRunStaysBytePinned)
{
    analysis::AnalyzerOptions opts;
    RunResult result = runSample(opts, kTriageSample);
    ASSERT_EQ(result.reports.size(), 3u);
    EXPECT_FALSE(result.triage.ran);
    for (const auto &r : result.reports) {
        EXPECT_EQ(r.tier, analysis::Tier::Untriaged);
        EXPECT_EQ(r.rank, 0);
        // The additive JSON schema: no tier/rank keys pre-triage.
        EXPECT_EQ(toJson(r).find("\"tier\""), std::string::npos);
        EXPECT_EQ(r.str().find("{"), std::string::npos) << r.str();
    }
}

TEST(TriageTest, RefutationVerdictsOnPaperFpPatterns)
{
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    RunResult result = runSample(opts, kTriageSample);
    ASSERT_EQ(result.reports.size(), 3u);
    ASSERT_TRUE(result.triage.ran);
    EXPECT_EQ(result.triage.reports_triaged, 3u);
    EXPECT_EQ(result.triage.confirmed, 1u);
    EXPECT_EQ(result.triage.refuted, 2u);

    const analysis::BugReport *bitmask =
        reportFor(result, "fp_bitmask_fn");
    const analysis::BugReport *listop = reportFor(result, "fp_listop_fn");
    const analysis::BugReport *bug = reportFor(result, "tp_missing_put");
    ASSERT_NE(bitmask, nullptr);
    ASSERT_NE(listop, nullptr);
    ASSERT_NE(bug, nullptr);
    // The bit-test condition distinguishes the paths at higher
    // precision: the witness overlap dissolves.
    EXPECT_EQ(bitmask->tier, analysis::Tier::Refuted);
    // The list insertion becomes a tracked store set difference.
    EXPECT_EQ(listop->tier, analysis::Tier::Refuted);
    // The real bug reproduces and leads the ranking.
    EXPECT_EQ(bug->tier, analysis::Tier::Confirmed);
    EXPECT_EQ(bug->rank, 1);

    // Demoted, never deleted: every report still present, re-ordered by
    // rank with confirmed first and refuted last.
    std::set<int> ranks;
    for (size_t i = 0; i < result.reports.size(); i++) {
        EXPECT_EQ(result.reports[i].rank, static_cast<int>(i) + 1);
        ranks.insert(result.reports[i].rank);
    }
    EXPECT_EQ(ranks.size(), 3u);
    EXPECT_NE(result.reports.back().tier, analysis::Tier::Confirmed);

    // The deciding refutation/witness queries join the evidence and the
    // rendered report carries the tier.
    EXPECT_FALSE(bitmask->queries.empty());
    EXPECT_NE(bitmask->str().find("{refuted}"), std::string::npos)
        << bitmask->str();
    EXPECT_NE(bug->str().find("{confirmed}"), std::string::npos)
        << bug->str();
}

TEST(TriageTest, OnlyTheDefiningUnitIsReLowered)
{
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    RunResult single = runSample(opts, kTriageSample);
    RunResult multi =
        runUnits(opts, {kCleanUnitA, kTriageSample, kCleanUnitB});
    ASSERT_EQ(single.reports.size(), 3u);
    ASSERT_EQ(multi.reports.size(), 3u);
    EXPECT_EQ(single.triage.hp_units_lowered, 1u);
    EXPECT_EQ(multi.triage.hp_units_lowered, 1u);
    EXPECT_EQ(multi.triage.hp_functions_executed, 3u);
    EXPECT_EQ(multi.triage.hp_functions_incomplete, 0u);
    for (size_t i = 0; i < single.reports.size(); i++) {
        EXPECT_EQ(multi.reports[i].function, single.reports[i].function);
        EXPECT_EQ(multi.reports[i].tier, single.reports[i].tier)
            << multi.reports[i].str();
        EXPECT_EQ(multi.reports[i].rank, single.reports[i].rank);
    }
    EXPECT_NE(multi.str().find("1 unit(s) re-lowered"), std::string::npos)
        << multi.str();
    EXPECT_NE(multi.statsJson().find("\"hp_units_lowered\":1"),
              std::string::npos)
        << multi.statsJson();

    // A clean run lowers nothing at higher precision.
    RunResult clean = runUnits(opts, {kCleanUnitA, kCleanUnitB});
    EXPECT_TRUE(clean.reports.empty());
    EXPECT_EQ(clean.triage.hp_units_lowered, 0u);
}

TEST(TriageTest, EagerlyAbsorbedUnitsFindTheirDefinitions)
{
    // Units lowered eagerly and absorbed (the benchmark harness's path)
    // keep no spans: triage finds each definition in its unit's source
    // and reaches the tiers of a run committed from source.
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    RunResult spanned = runUnits(opts, {kCleanUnitA, kTriageSample});

    summary::SummaryDb db;
    summary::loadSpecsInto(kernel::dpmSpecText(), db);
    ir::Module mod;
    std::vector<std::pair<std::string, std::string>> sources;
    for (const char *unit : {kCleanUnitA, kTriageSample}) {
        mod.absorb(frontend::compile(unit));
        sources.emplace_back("", unit);
    }
    analysis::Analyzer analyzer(mod, db, analysis::AnalyzerOptions{});
    analyzer.run();
    std::vector<analysis::BugReport> reports = analyzer.reports();
    triage::TriagePass pass(mod, db, sources, analyzer.queryCache());
    pass.run(reports);
    ASSERT_EQ(reports.size(), spanned.reports.size());
    for (size_t i = 0; i < reports.size(); i++)
        EXPECT_EQ(reports[i].str(), spanned.reports[i].str());
    EXPECT_EQ(pass.stats().hp_functions_incomplete, 0u);
    EXPECT_EQ(pass.stats().hp_units_lowered, 1u);
}

TEST(TriageTest, DuplicateDefinitionTriagesTheFirstUnitsBody)
{
    // Both bodies report in the base pass (the bit test and the sum are
    // both `random` there). First-wins absorption keeps the first unit's
    // body, and triage must re-derive that same body: the bit test
    // refutes, the arithmetic guard confirms.
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    RunResult bit_first =
        runUnits(opts, {kBitmaskTestBody, kBitmaskArithBody});
    const analysis::BugReport *r = reportFor(bit_first, "fp_bitmask_fn");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->tier, analysis::Tier::Refuted);
    EXPECT_EQ(bit_first.triage.hp_units_lowered, 1u);

    RunResult arith_first =
        runUnits(opts, {kBitmaskArithBody, kBitmaskTestBody});
    r = reportFor(arith_first, "fp_bitmask_fn");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->tier, analysis::Tier::Confirmed);
    EXPECT_EQ(arith_first.triage.hp_units_lowered, 1u);

    // A declaration in an earlier unit yields to the later definition,
    // and that definition's unit is the one re-lowered.
    RunResult decl_first = runUnits(
        opts, {"int fp_bitmask_fn(struct device *dev, int flags);\n",
               kBitmaskTestBody});
    r = reportFor(decl_first, "fp_bitmask_fn");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->tier, analysis::Tier::Refuted);
    EXPECT_EQ(decl_first.triage.hp_units_lowered, 1u);
}

TEST(TriageTest, ExtensionSearchFindsDownstreamRelease)
{
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    RunResult result =
        runSample(opts, kDownstreamReleaseSource, /*lock_spec=*/true);
    const analysis::BugReport *leak = reportFor(result, "lock_holder");
    ASSERT_NE(leak, nullptr);
    ASSERT_EQ(leak->kind, analysis::BugKind::Unbalanced);
    // The feasible imbalance reproduces, but lock_user releases the
    // lock downstream: demoted to low-confidence, not confirmed.
    EXPECT_EQ(leak->tier, analysis::Tier::LowConfidence);
    // lock_user's own unbalanced report (the leaking callee's summary
    // exports no change, so the caller sees only the -1) also searches,
    // but has no caller to resolve it: it stays confirmed.
    const analysis::BugReport *caller = reportFor(result, "lock_user");
    ASSERT_NE(caller, nullptr);
    EXPECT_EQ(caller->tier, analysis::Tier::Confirmed);
    EXPECT_EQ(result.triage.extension_searches, 2u);
    EXPECT_EQ(result.triage.downstream_releases_found, 1u);
}

TEST(TriageTest, ExtensionSearchRespectsDepthAndNodeBounds)
{
    // Depth 0 disables the search entirely.
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    opts.triage_extension_depth = 0;
    RunResult no_depth =
        runSample(opts, kDownstreamReleaseSource, /*lock_spec=*/true);
    const analysis::BugReport *leak = reportFor(no_depth, "lock_holder");
    ASSERT_NE(leak, nullptr);
    EXPECT_EQ(leak->tier, analysis::Tier::Confirmed);
    EXPECT_EQ(no_depth.triage.extension_searches, 0u);
    EXPECT_EQ(no_depth.triage.downstream_releases_found, 0u);

    // A zero node cap starts the search but may visit no caller.
    analysis::AnalyzerOptions capped;
    capped.triage = true;
    capped.triage_max_extension_functions = 0;
    RunResult no_nodes =
        runSample(capped, kDownstreamReleaseSource, /*lock_spec=*/true);
    leak = reportFor(no_nodes, "lock_holder");
    ASSERT_NE(leak, nullptr);
    EXPECT_EQ(leak->tier, analysis::Tier::Confirmed);
    EXPECT_EQ(no_nodes.triage.extension_searches, 2u);
    EXPECT_EQ(no_nodes.triage.downstream_releases_found, 0u);
}

TEST(TriageTest, FuelExhaustionDegradesToUnverifiedNeverRefuted)
{
    // The tier lattice's safety floor: an exhausted per-report budget
    // may only leave a report `unverified` — it must never manufacture
    // a refutation (or a confirmation) it could not afford to prove.
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    opts.triage_fuel = 1;
    RunResult result = runSample(opts, kTriageSample);
    ASSERT_EQ(result.reports.size(), 3u);
    ASSERT_TRUE(result.triage.ran);
    EXPECT_EQ(result.triage.confirmed, 0u);
    EXPECT_EQ(result.triage.refuted, 0u);
    EXPECT_EQ(result.triage.low_confidence, 0u);
    EXPECT_EQ(result.triage.unverified, 3u);
    EXPECT_GT(result.triage.hp_functions_incomplete +
                  result.triage.budget_stops,
              0u);
    for (const auto &r : result.reports)
        EXPECT_EQ(r.tier, analysis::Tier::Unverified) << r.str();
}

TEST(TriageTest, RanksAreStableAcrossRunsAndCacheSettings)
{
    auto digest = [](const std::vector<analysis::BugReport> &reports) {
        std::string out;
        for (const auto &r : reports)
            out += std::to_string(r.rank) + " " + r.str() + "\n";
        return out;
    };
    analysis::AnalyzerOptions opts;
    opts.triage = true;
    std::string baseline = digest(runSample(opts, kTriageSample).reports);
    ASSERT_FALSE(baseline.empty());
    EXPECT_EQ(digest(runSample(opts, kTriageSample).reports), baseline);

    // The pass with no query cache and with the analysis run's cache
    // (what Rid::run hands it) must rank and tier alike.
    summary::SummaryDb db;
    summary::loadSpecsInto(kernel::dpmSpecText(), db);
    ir::Module mod;
    mod.absorb(frontend::compile(kTriageSample));
    std::vector<std::pair<std::string, std::string>> sources = {
        {"", kTriageSample}};
    analysis::Analyzer analyzer(mod, db, analysis::AnalyzerOptions{});
    analyzer.run();
    for (bool cache : {false, true}) {
        std::vector<analysis::BugReport> reports = analyzer.reports();
        triage::TriagePass pass(mod, db, sources,
                                cache ? analyzer.queryCache() : nullptr);
        pass.run(reports);
        EXPECT_EQ(digest(reports), baseline) << "cache=" << cache;
    }
}

TEST(TriageTest, ProvenanceTierRoundTripAndReclassifiedDiff)
{
    analysis::AnalyzerOptions plain_opts;
    RunResult plain = runSample(plain_opts, kTriageSample);
    analysis::AnalyzerOptions triage_opts;
    triage_opts.triage = true;
    RunResult triaged = runSample(triage_opts, kTriageSample);
    ASSERT_EQ(plain.reports.size(), triaged.reports.size());

    auto plain_records = provenanceRecords(plain);
    auto triaged_records = provenanceRecords(triaged);
    for (const auto &r : plain_records) {
        EXPECT_TRUE(r.tier.empty());
        EXPECT_EQ(r.rank, 0);
    }
    for (const auto &r : triaged_records) {
        EXPECT_FALSE(r.tier.empty());
        EXPECT_GT(r.rank, 0);
        EXPECT_NE(obs::explainText(r).find("triage: " + r.tier),
                  std::string::npos);
    }

    // Journal round trip preserves tier and rank byte-for-byte.
    std::string journal = obs::renderJournal(triaged_records);
    auto parsed = obs::parseJournal(journal);
    EXPECT_EQ(obs::renderJournal(parsed), journal);

    // Same fingerprints, new tiers: the whole report set diffs as
    // `reclassified`, not as new + resolved churn.
    obs::RunDiff diff = obs::diffRuns(plain_records, triaged_records);
    EXPECT_TRUE(diff.added.empty());
    EXPECT_TRUE(diff.resolved.empty());
    EXPECT_TRUE(diff.persisting.empty());
    EXPECT_EQ(diff.reclassified.size(), triaged_records.size());
    std::string text = obs::diffText(diff);
    EXPECT_NE(text.find("[untriaged -> confirmed]"), std::string::npos)
        << text;
    EXPECT_NE(text.find("[untriaged -> refuted]"), std::string::npos)
        << text;

    // A triaged run diffed against itself is all persisting: tier
    // equality keeps reclassification out of steady-state diffs.
    obs::RunDiff self = obs::diffRuns(triaged_records, triaged_records);
    EXPECT_TRUE(self.reclassified.empty());
    EXPECT_EQ(self.persisting.size(), triaged_records.size());
}

} // anonymous namespace
} // namespace rid
