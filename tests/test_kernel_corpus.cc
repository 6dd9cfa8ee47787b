/**
 * @file
 * Tests for the synthetic kernel corpus generator and the Section 6.3
 * call-site scanner (kernel/).
 */

#include <gtest/gtest.h>

#include "frontend/parser.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "kernel/scanner.h"
#include "summary/spec.h"

namespace rid::kernel {
namespace {

TEST(DpmSpecs, ParseAndHaveExpectedDirections)
{
    auto parsed = summary::parseSpecText(dpmSpecText()).summaries;
    EXPECT_GE(parsed.size(), 8u);
    for (const auto &p : parsed) {
        for (const auto &e : p.summary.entries) {
            for (const auto &[rc, delta] : e.changes) {
                if (p.summary.function.find("get") !=
                    std::string::npos) {
                    EXPECT_EQ(delta, 1) << p.summary.function;
                }
                if (p.summary.function.find("put") !=
                    std::string::npos) {
                    EXPECT_EQ(delta, -1) << p.summary.function;
                }
            }
        }
    }
}

TEST(DpmSpecs, GetFamilyAlwaysIncrements)
{
    // The Section 6.3 pitfall: the increment happens even on error, so
    // every entry of a get API must carry the +1.
    auto parsed = summary::parseSpecText(dpmSpecText()).summaries;
    for (const auto &p : parsed) {
        for (const auto &get : dpmGetFamily()) {
            if (p.summary.function != get)
                continue;
            for (const auto &e : p.summary.entries)
                EXPECT_FALSE(e.changes.empty()) << get;
        }
    }
}

TEST(Patterns, EveryKindParsesAsKernelC)
{
    std::mt19937_64 rng(7);
    for (PatternKind kind :
         {PatternKind::CorrectGetPut, PatternKind::CorrectNoErrorCheck,
          PatternKind::BuggyMissingPutOnError, PatternKind::BuggyIrqStyle,
          PatternKind::BuggyPathExplosion, PatternKind::WrapperGet,
          PatternKind::WrapperPut, PatternKind::BuggyWrapperCaller,
          PatternKind::FpBitmask, PatternKind::FpListOp,
          PatternKind::Cat2Helper, PatternKind::Cat2Complex,
          PatternKind::Cat3Filler, PatternKind::NestedGetUnderLock,
          PatternKind::LockedAllocPair}) {
        GeneratedFunction gen = emitPattern(kind, 1, rng);
        EXPECT_NO_THROW(frontend::parseUnit(gen.source))
            << patternKindName(kind) << ":\n"
            << gen.source;
        EXPECT_EQ(gen.truth.kind, kind);
    }
}

TEST(Patterns, TruthFlagsAreConsistent)
{
    std::mt19937_64 rng(7);
    for (int i = 0; i < 50; i++) {
        for (PatternKind kind :
             {PatternKind::BuggyMissingPutOnError,
              PatternKind::BuggyIrqStyle,
              PatternKind::BuggyWrapperCaller, PatternKind::FpBitmask}) {
            GeneratedFunction gen = emitPattern(kind, i, rng);
            if (gen.truth.rid_detects) {
                EXPECT_TRUE(gen.truth.has_bug);
            }
            if (gen.truth.misuse) {
                EXPECT_TRUE(gen.truth.error_handled_get_site);
            }
            EXPECT_FALSE(gen.truth.has_bug && gen.truth.induces_fp);
        }
    }
}

TEST(Generator, CountsAreExact)
{
    CorpusMix mix;
    mix.counts[PatternKind::BuggyMissingPutOnError] = 5;
    mix.counts[PatternKind::Cat3Filler] = 20;
    auto corpus = generateCorpus(mix);
    EXPECT_EQ(corpus.truth.size(), 25u);
    auto totals = corpus.totals();
    EXPECT_EQ(totals.real_bugs, 5);
    EXPECT_EQ(totals.rid_detectable_bugs, 5);
}

TEST(Generator, DeterministicForSameSeed)
{
    auto mix = CorpusMix::paperCalibrated(0.001);
    auto a = generateCorpus(mix, 99);
    auto b = generateCorpus(mix, 99);
    ASSERT_EQ(a.files.size(), b.files.size());
    for (size_t i = 0; i < a.files.size(); i++)
        EXPECT_EQ(a.files[i].text, b.files[i].text);
}

TEST(Generator, DifferentSeedsDiffer)
{
    CorpusMix mix;
    mix.counts[PatternKind::Cat3Filler] = 10;
    auto a = generateCorpus(mix, 1);
    auto b = generateCorpus(mix, 2);
    EXPECT_NE(a.files[0].text, b.files[0].text);
}

TEST(Generator, PaperCalibratedStudyPopulation)
{
    auto mix = CorpusMix::paperCalibrated(0.001);
    auto corpus = generateCorpus(mix);
    auto totals = corpus.totals();
    EXPECT_EQ(totals.error_handled_get_sites, 96);
    EXPECT_EQ(totals.misuse_sites, 67);
    EXPECT_EQ(totals.rid_detectable_bugs, 83);
    EXPECT_EQ(totals.fp_inducers, 272);
}

TEST(Generator, ScaledBugPopulationShrinks)
{
    auto mix = CorpusMix::paperCalibrated(0.01, true);
    auto corpus = generateCorpus(mix);
    EXPECT_LT(corpus.totals().error_handled_get_sites, 10);
}

TEST(Generator, TruthForLooksUpByName)
{
    CorpusMix mix;
    mix.counts[PatternKind::BuggyIrqStyle] = 3;
    auto corpus = generateCorpus(mix);
    for (const auto &truth : corpus.truth) {
        const FunctionTruth *found = corpus.truthFor(truth.name);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found->kind, PatternKind::BuggyIrqStyle);
    }
    EXPECT_EQ(corpus.truthFor("not_generated"), nullptr);
}

TEST(Generator, FilesRespectFunctionsPerFile)
{
    CorpusMix mix;
    mix.counts[PatternKind::Cat3Filler] = 100;
    auto corpus = generateCorpus(mix, 1, /*functions_per_file=*/10);
    EXPECT_EQ(corpus.files.size(), 10u);
}

TEST(Generator, WholeCorpusParses)
{
    auto mix = CorpusMix::paperCalibrated(0.001);
    auto corpus = generateCorpus(mix);
    for (const auto &file : corpus.files)
        EXPECT_NO_THROW(frontend::parseUnit(file.text)) << file.name;
}

TEST(Scanner, FindsErrorHandledSite)
{
    auto unit = frontend::parseUnit(R"(
int f(struct device *dev) {
    int ret;
    ret = pm_runtime_get_sync(dev);
    if (ret < 0)
        return ret;
    pm_runtime_put(dev);
    return 0;
}
)");
    auto scan = scanUnit(unit, dpmGetFamily(), dpmPutFamily());
    ASSERT_EQ(scan.sites.size(), 1u);
    EXPECT_TRUE(scan.sites[0].missing_put);
    EXPECT_EQ(scan.sites[0].api, "pm_runtime_get_sync");
    EXPECT_EQ(scan.sites[0].function, "f");
}

TEST(Scanner, CorrectErrorHandlingNotMisuse)
{
    // A driver (not a wrapper: it does real work) that undoes the
    // increment before bailing out.
    auto unit = frontend::parseUnit(R"(
int f(struct device *dev, int arg) {
    int ret;
    ret = pm_runtime_get_sync(dev);
    if (ret < 0) {
        pm_runtime_put(dev);
        return ret;
    }
    ret = hw_op(dev, arg);
    pm_runtime_put(dev);
    return 0;
}
int hw_op(struct device *dev, int arg);
)");
    auto scan = scanUnit(unit, dpmGetFamily(), dpmPutFamily());
    ASSERT_EQ(scan.sites.size(), 1u);
    EXPECT_FALSE(scan.sites[0].missing_put);
    EXPECT_EQ(scan.misuses(), 0);
}

TEST(Scanner, NoErrorCheckNotCounted)
{
    auto unit = frontend::parseUnit(R"(
int f(struct device *dev) {
    pm_runtime_get_sync(dev);
    pm_runtime_put(dev);
    return 0;
}
)");
    auto scan = scanUnit(unit, dpmGetFamily(), dpmPutFamily());
    EXPECT_TRUE(scan.sites.empty());
}

TEST(Scanner, DeclInitFormRecognized)
{
    auto unit = frontend::parseUnit(R"(
int f(struct device *dev) {
    int ret = pm_runtime_get(dev);
    if (ret < 0)
        return ret;
    pm_runtime_put(dev);
    return 0;
}
)");
    auto scan = scanUnit(unit, dpmGetFamily(), dpmPutFamily());
    EXPECT_EQ(scan.sites.size(), 1u);
    EXPECT_EQ(scan.misuses(), 1);
}

TEST(Scanner, GotoErrorHandlingRecognized)
{
    auto unit = frontend::parseUnit(R"(
int f(struct device *dev) {
    int ret;
    ret = pm_runtime_get_sync(dev);
    if (ret < 0)
        goto out;
    pm_runtime_put(dev);
out:
    return ret;
}
)");
    auto scan = scanUnit(unit, dpmGetFamily(), dpmPutFamily());
    ASSERT_EQ(scan.sites.size(), 1u);
    EXPECT_TRUE(scan.sites[0].missing_put);
}

TEST(Scanner, ClassicWrapperNeverASite)
{
    // The conditional-undo wrapper's error branch does not leave the
    // function, so it is not an error-handled bail-out site under any
    // setting.
    auto unit = frontend::parseUnit(R"(
int autopm_get(struct intf *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
)");
    EXPECT_TRUE(scanUnit(unit, dpmGetFamily(), dpmPutFamily(), true)
                    .sites.empty());
    EXPECT_TRUE(scanUnit(unit, dpmGetFamily(), dpmPutFamily(), false)
                    .sites.empty());
}

TEST(Scanner, EscapingUndoWrapperExcludedOnlyWithFlag)
{
    // A wrapper whose error branch undoes the increment and returns: a
    // syntactic site, but excluded from the study population when
    // wrapper exclusion is on (as the paper does for the 96 sites).
    auto unit = frontend::parseUnit(R"(
int autopm_get(struct intf *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0) {
        pm_runtime_put_sync(&intf->dev);
        return status;
    }
    return 0;
}
)");
    auto with = scanUnit(unit, dpmGetFamily(), dpmPutFamily(),
                         /*exclude_wrappers=*/true);
    auto without = scanUnit(unit, dpmGetFamily(), dpmPutFamily(),
                            /*exclude_wrappers=*/false);
    EXPECT_TRUE(with.sites.empty());
    ASSERT_EQ(without.sites.size(), 1u);
    EXPECT_FALSE(without.sites[0].missing_put);
}

TEST(Scanner, MatchesGeneratorGroundTruthExactly)
{
    auto mix = CorpusMix::paperCalibrated(0.001);
    auto corpus = generateCorpus(mix);
    int sites = 0, misuses = 0;
    for (const auto &file : corpus.files) {
        auto unit = frontend::parseUnit(file.text);
        auto scan = scanUnit(unit, dpmGetFamily(), dpmPutFamily());
        sites += static_cast<int>(scan.sites.size());
        misuses += scan.misuses();
    }
    auto totals = corpus.totals();
    EXPECT_EQ(sites, totals.error_handled_get_sites);
    EXPECT_EQ(misuses, totals.misuse_sites);
}

} // anonymous namespace
} // namespace rid::kernel
