/**
 * @file
 * Tests for the LAVA-style injection engine and the ground-truth scorer
 * (kernel/inject.h, kernel/score.h): every recipe's bug is found by the
 * analyzer, the viability filter rejects unreachable injections, and
 * ground truth round-trips through the scorer (found = TP, suppressed =
 * FN, extra = FP).
 */

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/rid.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "kernel/inject.h"
#include "kernel/score.h"

namespace rid::kernel {
namespace {

RunResult
analyzeAll(const std::string &source)
{
    Rid tool;
    tool.loadSpecText(dpmSpecText());
    tool.loadSpecText(lockSpecText());
    tool.loadSpecText(allocSpecText());
    tool.addSource(source);
    return tool.run();
}

GeneratedFunction
makeHost(InjectionKind kind)
{
    std::mt19937_64 rng(11);
    return emitPattern(injectionHostKind(kind), 0, rng);
}

class RecipeTest : public ::testing::TestWithParam<InjectionKind>
{};

TEST_P(RecipeTest, CleanHostIsSilentAndInjectedBugIsFound)
{
    GeneratedFunction gen = makeHost(GetParam());
    EXPECT_TRUE(analyzeAll(gen.source).reports.empty()) << gen.source;

    InjectionEngine engine;
    Injection record;
    ASSERT_TRUE(engine.inject(GetParam(), gen, &record)) << gen.source;
    EXPECT_EQ(engine.stats().applied, 1);
    EXPECT_EQ(record.function, gen.truth.name);
    EXPECT_EQ(record.domain, injectionDomain(GetParam()));
    EXPECT_EQ(record.host, injectionHostKind(GetParam()));
    EXPECT_FALSE(record.path.empty());
    EXPECT_GT(record.line, 0);
    EXPECT_TRUE(gen.truth.injected);
    EXPECT_TRUE(gen.truth.has_bug);
    EXPECT_EQ(gen.truth.domain, record.domain);

    RunResult result = analyzeAll(gen.source);
    bool found = false;
    for (const auto &report : result.reports) {
        if (report.function == record.function &&
            report.domain == record.domain) {
            found = true;
        }
    }
    EXPECT_TRUE(found) << "injected " << injectionKindName(GetParam())
                       << " not reported:\n"
                       << gen.source;
}

INSTANTIATE_TEST_SUITE_P(
    AllRecipes, RecipeTest,
    ::testing::Values(InjectionKind::MissingDecOnError,
                      InjectionKind::DoubleInc,
                      InjectionKind::LeakedAcquireUnderLock,
                      InjectionKind::RefLeakUnderLock,
                      InjectionKind::AllocLeakUnderLock),
    [](const ::testing::TestParamInfo<InjectionKind> &info) {
        std::string name = injectionKindName(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(InjectionViability, UnreachableInjectionIsRejected)
{
    // The error block hides under an infeasible outer branch: the
    // rewrite anchor matches, but the injected leak can never execute.
    GeneratedFunction gen;
    gen.truth.name = "unreach_host";
    gen.truth.kind = PatternKind::CorrectGetPut;
    gen.source = "int unreach_host(struct device *dev, int arg) {\n"
                 "    int ret;\n"
                 "    ret = pm_runtime_get_sync(dev);\n"
                 "    if (arg < arg) {\n"
                 "        if (ret < 0) {\n"
                 "            pm_runtime_put(dev);\n"
                 "            return ret;\n"
                 "        }\n"
                 "    }\n"
                 "    pm_runtime_put(dev);\n"
                 "    return 0;\n"
                 "}\n";
    std::string before = gen.source;

    InjectionEngine engine;
    EXPECT_FALSE(
        engine.inject(InjectionKind::MissingDecOnError, gen, nullptr));
    EXPECT_EQ(engine.stats().rejected_unviable, 1);
    EXPECT_EQ(engine.stats().applied, 0);
    EXPECT_FALSE(gen.truth.injected);
    EXPECT_EQ(gen.source, before);
}

TEST(InjectionViability, ReachableLeakPassesDirectCheck)
{
    const char *leaky = "int leaky(struct device *dev) {\n"
                        "    int ret;\n"
                        "    ret = pm_runtime_get_sync(dev);\n"
                        "    if (ret < 0)\n"
                        "        return ret;\n"
                        "    pm_runtime_put(dev);\n"
                        "    return 0;\n"
                        "}\n";
    EXPECT_TRUE(InjectionEngine::viable(leaky, "leaky", "ref"));
    // A balanced function has no nonzero-change path in any domain.
    GeneratedFunction clean = makeHost(InjectionKind::MissingDecOnError);
    EXPECT_FALSE(
        InjectionEngine::viable(clean.source, clean.truth.name, "ref"));
}

TEST(InjectionViability, MissingAnchorIsRewriteRejection)
{
    // CorrectNoErrorCheck has no `if (ret < 0)` block to rewrite.
    std::mt19937_64 rng(3);
    GeneratedFunction gen =
        emitPattern(PatternKind::CorrectNoErrorCheck, 0, rng);
    InjectionEngine engine;
    EXPECT_FALSE(
        engine.inject(InjectionKind::MissingDecOnError, gen, nullptr));
    EXPECT_EQ(engine.stats().rejected_rewrite, 1);
}

TEST(Scorer, GroundTruthRoundTrips)
{
    // Two injections: one found (TP), one suppressed (FN); one extra
    // report (FP); one report each on a seeded bug and a seeded
    // FP-inducer (tallied separately, not FPs against injected truth).
    Injection found;
    found.function = "ref_hit";
    found.domain = "ref";
    found.kind = InjectionKind::MissingDecOnError;
    Injection suppressed;
    suppressed.function = "lock_miss";
    suppressed.domain = "lock";
    suppressed.kind = InjectionKind::LeakedAcquireUnderLock;

    std::vector<FunctionTruth> truth(4);
    truth[0].name = "ref_hit";
    truth[0].injected = true;
    truth[0].has_bug = true;
    truth[1].name = "lock_miss";
    truth[1].injected = true;
    truth[1].has_bug = true;
    truth[1].domain = "lock";
    truth[2].name = "seeded_bug";
    truth[2].has_bug = true;
    truth[3].name = "fp_inducer";
    truth[3].induces_fp = true;

    std::vector<ReportClaim> claims = {
        {"ref_hit", "ref"},
        {"ghost_fn", "ref"},
        {"seeded_bug", "ref"},
        {"fp_inducer", "ref"},
    };
    ScoreResult result =
        scoreReports({found, suppressed}, truth, claims);
    EXPECT_EQ(result.total.tp, 1);
    EXPECT_EQ(result.total.fn, 1);
    EXPECT_EQ(result.total.fp, 1);
    EXPECT_EQ(result.pattern_bug_hits, 1);
    EXPECT_EQ(result.pattern_fp_hits, 1);
    EXPECT_EQ(result.by_domain.at("ref").tp, 1);
    EXPECT_EQ(result.by_domain.at("lock").fn, 1);
    EXPECT_DOUBLE_EQ(result.total.precision(), 0.5);
    EXPECT_DOUBLE_EQ(result.total.recall(), 0.5);
    ASSERT_EQ(result.false_positives.size(), 1u);
    EXPECT_EQ(result.false_positives[0], "ghost_fn");
}

TEST(Scorer, DuplicateClaimsCollapseToOneTruePositive)
{
    Injection inj;
    inj.function = "f";
    inj.domain = "ref";
    std::vector<FunctionTruth> truth(1);
    truth[0].name = "f";
    truth[0].injected = true;
    std::vector<ReportClaim> claims = {{"f", "ref"}, {"f", "ref"}};
    ScoreResult result = scoreReports({inj}, truth, claims);
    EXPECT_EQ(result.total.tp, 1);
    EXPECT_EQ(result.total.fp, 0);
    EXPECT_EQ(result.total.fn, 0);
}

TEST(Scorer, WrongDomainClaimIsFalsePositive)
{
    Injection inj;
    inj.function = "f";
    inj.domain = "ref";
    std::vector<FunctionTruth> truth(1);
    truth[0].name = "f";
    truth[0].injected = true;
    std::vector<ReportClaim> claims = {{"f", "lock"}};
    ScoreResult result = scoreReports({inj}, truth, claims);
    EXPECT_EQ(result.total.tp, 0);
    EXPECT_EQ(result.total.fp, 1);
    EXPECT_EQ(result.total.fn, 1);
}

TEST(Scorer, UnclassifiedClaimMatchesAnyDomain)
{
    Injection inj;
    inj.function = "f";
    inj.domain = "alloc";
    std::vector<FunctionTruth> truth(1);
    truth[0].name = "f";
    truth[0].injected = true;
    std::vector<ReportClaim> claims = {{"f", ""}};
    ScoreResult result = scoreReports({inj}, truth, claims);
    EXPECT_EQ(result.total.tp, 1);
    EXPECT_EQ(result.by_domain.at("alloc").tp, 1);
}

TEST(Scorer, DominanceIsStrictPareto)
{
    auto mk = [](int tp, int fp, int fn) {
        ScoreResult r;
        r.total.tp = tp;
        r.total.fp = fp;
        r.total.fn = fn;
        return r;
    };
    EXPECT_TRUE(mk(10, 0, 0).dominates(mk(9, 5, 1)));
    EXPECT_FALSE(mk(10, 0, 0).dominates(mk(10, 0, 0)));
    // Better recall but worse precision: no dominance either way.
    EXPECT_FALSE(mk(10, 5, 0).dominates(mk(8, 0, 2)));
    EXPECT_FALSE(mk(8, 0, 2).dominates(mk(10, 5, 0)));
}

TEST(InjectedCorpus, EndToEndScoresPerfectlyAtSmallScale)
{
    auto mix = CorpusMix::cleanCalibrated(0.005);
    auto plan = InjectionPlan::calibrated(mix);
    InjectedCorpus injected = generateInjectedCorpus(mix, plan);

    EXPECT_EQ(injected.stats.applied,
              static_cast<int>(injected.injections.size()));
    EXPECT_EQ(injected.stats.applied, plan.total())
        << "not every planned injection found a viable host";
    int flagged = 0;
    for (const auto &truth : injected.corpus.truth)
        flagged += truth.injected ? 1 : 0;
    EXPECT_EQ(flagged, static_cast<int>(injected.injections.size()));

    // Deterministic for the same seed, including the injection log.
    InjectedCorpus again = generateInjectedCorpus(mix, plan);
    ASSERT_EQ(again.corpus.files.size(), injected.corpus.files.size());
    for (size_t i = 0; i < again.corpus.files.size(); i++)
        EXPECT_EQ(again.corpus.files[i].text,
                  injected.corpus.files[i].text);
    ASSERT_EQ(again.injections.size(), injected.injections.size());
    for (size_t i = 0; i < again.injections.size(); i++)
        EXPECT_EQ(again.injections[i].function,
                  injected.injections[i].function);

    Rid tool;
    tool.loadSpecText(dpmSpecText());
    tool.loadSpecText(lockSpecText());
    tool.loadSpecText(allocSpecText());
    for (const auto &file : injected.corpus.files)
        tool.addSource(file.text);
    RunResult result = tool.run();

    ScoreResult score =
        scoreReports(injected.injections, injected.corpus.truth,
                     claimsFrom(result.reports));
    EXPECT_EQ(score.total.fp, 0)
        << "first FP: "
        << (score.false_positives.empty() ? ""
                                          : score.false_positives[0]);
    EXPECT_EQ(score.total.fn, 0);
    EXPECT_DOUBLE_EQ(score.total.precision(), 1.0);
    EXPECT_DOUBLE_EQ(score.total.recall(), 1.0);
    // All three effect domains carry injections.
    EXPECT_EQ(score.by_domain.size(), 3u);
}

TEST(InjectedCorpus, ShardedAndResidentLayoutsAgree)
{
    auto mix = CorpusMix::cleanCalibrated(0.002);
    auto plan = InjectionPlan::calibrated(mix);
    InjectedCorpus resident = generateInjectedCorpus(mix, plan);

    ShardOptions opts;
    opts.files_per_shard = 3;
    InjectionLog log;
    std::vector<SourceFile> files;
    std::set<int> shard_indices;
    generateInjectedCorpusSharded(
        mix, plan, 0x101, opts,
        [&](CorpusShard &&shard) {
            shard_indices.insert(shard.index);
            for (auto &file : shard.files)
                files.push_back(std::move(file));
        },
        log);
    EXPECT_GT(shard_indices.size(), 1u);
    ASSERT_EQ(files.size(), resident.corpus.files.size());
    for (size_t i = 0; i < files.size(); i++)
        EXPECT_EQ(files[i].text, resident.corpus.files[i].text);
    EXPECT_EQ(log.injections.size(), resident.injections.size());
}

/** FNV-1a 64 over one `function\tdomain\tkind\tline\n` line per
 *  admitted injection, in emission order. */
uint64_t
truthDigest(const std::vector<Injection> &injections)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &i : injections) {
        std::string line = i.function + "\t" + i.domain + "\t" +
                           injectionKindName(i.kind) + "\t" +
                           std::to_string(i.line) + "\n";
        for (unsigned char c : line) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(InjectedCorpus, PinnedCorpusAtFixedScaleAndSeed)
{
    // The viability filter decides which rewrites are admitted, so the
    // admitted set is pinned: engine statistics and a digest of the truth
    // records for the calibrated plan at the scoring harness's default
    // scale and seed, and for a plan large enough to attempt every host.
    struct Pinned
    {
        double scale;
        bool every_host;
        InjectionEngine::Stats stats;
        uint64_t digest;
    };
    const Pinned pinned[] = {
        {0.05, false, {47, 47, 0, 0}, 0xefdf2fb46f554bb0ull},
        {0.01, true, {21, 21, 0, 0}, 0x192ee2ccb552761eull},
    };
    for (const auto &p : pinned) {
        auto mix = CorpusMix::cleanCalibrated(p.scale);
        auto plan = InjectionPlan::calibrated(mix);
        if (p.every_host)
            for (auto &[kind, count] : plan.counts)
                count = 100000;
        InjectedCorpus injected = generateInjectedCorpus(mix, plan, 0x101);
        SCOPED_TRACE(p.scale);
        EXPECT_EQ(injected.stats.attempted, p.stats.attempted);
        EXPECT_EQ(injected.stats.applied, p.stats.applied);
        EXPECT_EQ(injected.stats.rejected_rewrite, p.stats.rejected_rewrite);
        EXPECT_EQ(injected.stats.rejected_unviable,
                  p.stats.rejected_unviable);
        EXPECT_EQ(truthDigest(injected.injections), p.digest);
    }
}

TEST(Census, CountsDomainsAndInjections)
{
    auto mix = CorpusMix::cleanCalibrated(0.002);
    auto plan = InjectionPlan::calibrated(mix);
    InjectedCorpus injected = generateInjectedCorpus(mix, plan);
    CorpusCensus census = censusOf(injected.corpus.truth);

    EXPECT_EQ(census.functions,
              static_cast<int>(injected.corpus.truth.size()));
    int injected_total = 0;
    for (const auto &[domain, d] : census.domains) {
        EXPECT_GT(census.functions,
                  d.changing + d.affecting_analyzed +
                      d.affecting_not_analyzed)
            << domain;
        injected_total += d.injected;
    }
    EXPECT_EQ(injected_total,
              static_cast<int>(injected.injections.size()));
    // Nested patterns count as changing in both their domains.
    EXPECT_GE(census.domains.at("lock").changing,
              mix.countOf(PatternKind::CorrectLockPair) +
                  mix.countOf(PatternKind::NestedGetUnderLock) +
                  mix.countOf(PatternKind::LockedAllocPair));
}

} // anonymous namespace
} // namespace rid::kernel
