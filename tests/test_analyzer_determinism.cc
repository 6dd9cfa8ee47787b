/**
 * @file
 * Determinism regression suite for the whole analyzer.
 *
 * analyzer.cc claims its results are deterministic: the SCC scheduler
 * only runs an SCC once its callee SCCs are done and emits reports in
 * SCC-id order, and the IPP drop choice depends on the entries alone.
 * This suite pins those guarantees down across the option matrix: SCC
 * threads in {1, 2, 4, 8} (plus tracing, budgets, faults, domain filters
 * and compaction) must all produce byte-identical ordered report lists
 * AND byte-identical summary exports on a representative corpus (the
 * synthetic DPM corpus plus the paper's Figure 9 wrapper example). The
 * SccScheduler tests drive the scheduler through deep chains, wide
 * fan-ins and wrapper chains at 8 workers. The engine itself, with and
 * without the shared query and instantiation caches, is checked against
 * the recorded output of the paper's enumerate-then-replay engine in
 * test_analysis_tree_exec.cc.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/rid.h"
#include "frontend/lower.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "kernel/inject.h"
#include "kernel/score.h"
#include "obs/failpoint.h"
#include "summary/spec.h"

namespace rid {
namespace {

/** Figure 9 of the paper (also used by examples/ and bench/): a wrapper
 *  whose summary is computed, plus a caller with an early-exit bug. */
const char *kFigure9Source = R"(
int usb_autopm_get_interface(struct usb_interface *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
int idmouse_open(struct usb_interface *interface) {
    int result;
    result = usb_autopm_get_interface(interface);
    if (result)
        goto error;
    result = idmouse_create_image(interface);
    if (result)
        goto error;
    usb_autopm_put_interface(interface);
error:
    return result;
}
int idmouse_create_image(struct usb_interface *i);
void usb_autopm_put_interface(struct usb_interface *i);
)";

/**
 * One full analysis run; the digest is the report list in emission
 * order (what ridc prints), the (name-ordered) computed-summary export and the (name-ordered)
 * function diagnostics, so any divergence in reports, report contents,
 * summaries or degradation outcomes shows up byte-for-byte.
 * With @p trace the run records spans (including per-solver-query
 * spans), which must not perturb any result.
 */
std::string
runDigest(const kernel::Corpus &corpus, int threads, bool trace = false,
          double run_deadline = 0, double fn_deadline = 0,
          uint64_t solver_fuel = 0, const std::string &failpoints = "",
          const std::vector<std::string> &enabled_domains = {},
          bool load_domain_specs = false, bool compact = true)
{
    analysis::AnalyzerOptions opts;
    opts.threads = threads;
    opts.compact_summaries = compact;
    opts.run_deadline_seconds = run_deadline;
    opts.function_deadline_seconds = fn_deadline;
    opts.function_solver_fuel = solver_fuel;
    opts.failpoints = failpoints;
    opts.enabled_domains = enabled_domains;
    if (trace) {
        opts.tracer = std::make_shared<obs::Tracer>();
        opts.trace_solver_queries = true;
    }
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    if (load_domain_specs) {
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
    }
    tool.addSource(kFigure9Source);
    for (const auto &file : corpus.files)
        tool.addSource(file.text);
    RunResult result = tool.run();
    if (!failpoints.empty())
        obs::FailpointRegistry::instance().disarm();

    std::string digest;
    for (const auto &report : result.reports)
        digest += report.str() + "\n";
    digest += "--- summaries ---\n";
    digest += tool.exportSummaries();
    digest += "--- diagnostics ---\n";
    for (const auto &d : result.diagnostics)
        digest += d.function + " " + analysis::fnStatusName(d.status) +
                  " " + d.reason + "\n";
    return digest;
}

/** Reports + diagnostics only — the contract summary compaction pins:
 *  it may reshape exported summaries (that is its job) but must not
 *  move a single report or degradation outcome. */
std::string
stripSummaries(const std::string &digest)
{
    size_t summaries = digest.find("--- summaries ---\n");
    size_t diagnostics = digest.find("--- diagnostics ---\n");
    if (summaries == std::string::npos ||
        diagnostics == std::string::npos)
        return digest;
    return digest.substr(0, summaries) + digest.substr(diagnostics);
}

class AnalyzerDeterminismTest : public ::testing::Test
{
  protected:
    static kernel::Corpus corpus_;
    static kernel::Corpus multi_corpus_;

    static void
    SetUpTestSuite()
    {
        corpus_ = kernel::generateCorpus(
            kernel::CorpusMix::paperCalibrated(0.001));
        multi_corpus_ = kernel::generateCorpus(
            kernel::CorpusMix::multiDomain(0.001, /*domain_count=*/4));
    }
};

kernel::Corpus AnalyzerDeterminismTest::corpus_;
kernel::Corpus AnalyzerDeterminismTest::multi_corpus_;

TEST_F(AnalyzerDeterminismTest, ThreadsByCacheMatrixIsByteIdentical)
{
    // Every worker count shares one query cache and one instantiation
    // cache; which worker fills an entry first must not show. (The caches
    // against no caches: TreeExecDifferential.)
    std::string baseline = runDigest(corpus_, 1);
    ASSERT_FALSE(baseline.empty());
    for (int threads : {2, 4, 8})
        EXPECT_EQ(runDigest(corpus_, threads), baseline)
            << "threads=" << threads;
}

TEST_F(AnalyzerDeterminismTest, TracingDoesNotPerturbResults)
{
    // Span recording (including per-query solver spans) must be purely
    // observational: the digest stays byte-identical to the untraced
    // baseline at every thread count.
    std::string baseline = runDigest(corpus_, 1);
    for (int threads : {1, 4}) {
        EXPECT_EQ(runDigest(corpus_, threads, true), baseline)
            << "threads=" << threads << " trace=on";
    }
}

TEST_F(AnalyzerDeterminismTest, RepeatedRunsAreByteIdentical)
{
    // Same configuration twice: catches any residual run-to-run
    // nondeterminism (iteration over pointer-keyed containers, races on
    // the shared cache, reports in worker-completion order, ...).
    EXPECT_EQ(runDigest(corpus_, 4), runDigest(corpus_, 4));
}

TEST_F(AnalyzerDeterminismTest, GenerousBudgetIsByteIdenticalToNoBudget)
{
    // The degradation ladder promises: a budget that never fires leaves
    // the run byte-identical to an unbudgeted one — attaching budgets to
    // the solver and symexec must be purely observational until expiry.
    // An hour-scale deadline and huge fuel allowance cannot plausibly
    // fire on this corpus.
    std::string baseline = runDigest(corpus_, 1);
    for (int threads : {1, 4}) {
        EXPECT_EQ(runDigest(corpus_, threads, false,
                            /*run_deadline=*/3600,
                            /*fn_deadline=*/3600,
                            /*solver_fuel=*/1ull << 60),
                  baseline)
            << "threads=" << threads << " with generous budget";
    }
}

TEST_F(AnalyzerDeterminismTest, RefOnlyDomainFilterIsByteIdentical)
{
    // The effect-domain differential, part 1: enabling only the `ref`
    // domain must reproduce the pre-domain run exactly — same reports,
    // same summaries, same diagnostics — across thread counts. The
    // filter machinery (seed selection, the IPP pre-pass) must be
    // invisible when it selects everything there is.
    std::string baseline = runDigest(corpus_, 1);
    for (int threads : {1, 4}) {
        EXPECT_EQ(runDigest(corpus_, threads, false, 0, 0, 0, "",
                            {"ref"}),
                  baseline)
            << "threads=" << threads << " domains=ref";
    }
}

TEST_F(AnalyzerDeterminismTest, DomainSpecsDoNotPerturbRefScan)
{
    // Part 2: merely loading the lock/kmalloc specs (which declare two
    // balanced-policy domains and so activate the balanced pre-pass)
    // must not change a single byte of the refcount scan when the
    // corpus never calls a lock/alloc primitive.
    std::string baseline = runDigest(corpus_, 1);
    EXPECT_EQ(runDigest(corpus_, 1, false, 0, 0, 0, "", {},
                        /*load_domain_specs=*/true),
              baseline);
}

TEST_F(AnalyzerDeterminismTest, MultiDomainScanIsByteIdentical)
{
    // A corpus that mixes refcount, lock and alloc patterns, analyzed
    // with all three domains' specs loaded, must stay byte-identical
    // across the same matrix the refcount corpus is pinned on.
    std::string baseline =
        runDigest(multi_corpus_, 1, false, 0, 0, 0, "", {}, true);
    ASSERT_NE(baseline.find("unbalanced at return"), std::string::npos)
        << "multi-domain corpus produced no balanced-policy reports";
    for (int threads : {1, 4}) {
        EXPECT_EQ(runDigest(multi_corpus_, threads, false, 0, 0, 0,
                            "", {}, true),
                  baseline)
            << "threads=" << threads << " multi-domain";
    }
    // Filtering the same corpus down to `ref` suppresses every
    // balanced-policy report deterministically.
    std::string ref_only = runDigest(multi_corpus_, 1, false, 0, 0,
                                     0, "", {"ref"}, true);
    EXPECT_EQ(ref_only.find("unbalanced at return"), std::string::npos);
    EXPECT_EQ(runDigest(multi_corpus_, 4, false, 0, 0, 0, "",
                        {"ref"}, true),
              ref_only);
}

TEST_F(AnalyzerDeterminismTest, CompactionPreservesReportsAndDiagnostics)
{
    // Summary compaction merges call-boundary-indistinguishable entries
    // AFTER the function's own reports and diagnostics are final, so
    // toggling it may only change the summary export — reports and
    // diagnostics must stay byte-identical to the uncompacted run,
    // across thread counts.
    std::string baseline =
        stripSummaries(runDigest(corpus_, 1, false, 0, 0, 0, "", {},
                                 false, /*compact=*/false));
    ASSERT_FALSE(baseline.empty());
    for (int threads : {1, 4}) {
        for (bool compact : {false, true}) {
            if (threads == 1 && !compact)
                continue;  // the baseline itself
            EXPECT_EQ(stripSummaries(runDigest(corpus_, threads,
                                               false, 0, 0, 0, "", {},
                                               false, compact)),
                      baseline)
                << "threads=" << threads << " compact=" << compact;
        }
    }
}

TEST_F(AnalyzerDeterminismTest, InterningIsByteIdenticalIncludingSummaries)
{
    // The instantiation cache is pure memoization: a hit returns exactly
    // what a fresh instantiate() would have produced, so the FULL digest
    // — reports, summaries and diagnostics — is byte-identical however
    // the workers share it. (Compaction is off so the summaries section
    // exercises the raw per-entry path; the cache against no cache is
    // TreeExecDifferential's second pass.)
    std::string baseline =
        runDigest(corpus_, 1, false, 0, 0, 0, "", {}, false,
                  /*compact=*/false);
    ASSERT_FALSE(baseline.empty());
    for (int threads : {1, 4}) {
        EXPECT_EQ(runDigest(corpus_, threads, false, 0, 0, 0, "", {}, false,
                            /*compact=*/false),
                  baseline)
            << "threads=" << threads;
    }
}

class InjectedDeterminismTest : public ::testing::Test
{
  protected:
    static kernel::InjectedCorpus injected_;
    static kernel::InjectedCorpus triage_injected_;

    static void
    SetUpTestSuite()
    {
        auto mix = kernel::CorpusMix::cleanCalibrated(0.05);
        injected_ = kernel::generateInjectedCorpus(
            mix, kernel::InjectionPlan::calibrated(mix));
        // The triage differential needs both tier extremes represented:
        // injected true positives (confirmed) and seeded Section 6.4
        // FP-inducers (refuted).
        auto tmix = kernel::CorpusMix::cleanCalibrated(0.01);
        tmix.counts[kernel::PatternKind::FpBitmask] = 6;
        tmix.counts[kernel::PatternKind::FpListOp] = 5;
        triage_injected_ = kernel::generateInjectedCorpus(
            tmix, kernel::InjectionPlan::calibrated(tmix));
    }

    /** One triaged run's full ordered report list: rank, fingerprint
     *  and the tier-suffixed rendering — any tier or rank divergence
     *  across configurations shows up byte-for-byte. */
    static std::string
    triageDigest(int threads)
    {
        analysis::AnalyzerOptions opts;
        opts.threads = threads;
        opts.triage = true;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : triage_injected_.corpus.files)
            tool.addSource(file.text);
        RunResult result = tool.run();
        EXPECT_FALSE(result.reports.empty());
        std::string digest;
        for (const auto &report : result.reports)
            digest += std::to_string(report.rank) + " " +
                      obs::fpHex(report.fingerprint) + " " +
                      report.str() + "\n";
        return digest;
    }

    /** The provenance journal of one triaged run at @p threads. */
    static std::string
    triageJournal(int threads)
    {
        analysis::AnalyzerOptions opts;
        opts.threads = threads;
        opts.triage = true;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : triage_injected_.corpus.files)
            tool.addSource(file.text);
        return obs::renderJournal(provenanceRecords(tool.run()));
    }

    struct ScoredRun
    {
        std::string digest;
        kernel::ScoreResult score;
    };

    /** Fingerprints of one run in emission order (one fpHex + report
     *  line per report), asserting every report is stamped. */
    static std::string
    fingerprintDigest(int threads)
    {
        analysis::AnalyzerOptions opts;
        opts.threads = threads;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : injected_.corpus.files)
            tool.addSource(file.text);
        RunResult result = tool.run();
        EXPECT_FALSE(result.reports.empty());
        std::string digest;
        for (const auto &report : result.reports) {
            EXPECT_NE(report.fingerprint, 0u) << report.str();
            EXPECT_NE(report.function_fp, 0u) << report.str();
            EXPECT_EQ(report.fingerprint,
                      report.computeFingerprint(report.function_fp));
            digest += obs::fpHex(report.fingerprint) + " " + report.str() +
                      "\n";
        }
        return digest;
    }

    static ScoredRun
    run(int threads, bool compact = true)
    {
        analysis::AnalyzerOptions opts;
        opts.threads = threads;
        opts.compact_summaries = compact;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.loadSpecText(kernel::lockSpecText());
        tool.loadSpecText(kernel::allocSpecText());
        for (const auto &file : injected_.corpus.files)
            tool.addSource(file.text);
        RunResult result = tool.run();

        ScoredRun out;
        for (const auto &report : result.reports)
            out.digest += report.str() + "\n";
        out.score = kernel::scoreReports(
            injected_.injections, injected_.corpus.truth,
            kernel::claimsFrom(result.reports));
        return out;
    }
};

kernel::InjectedCorpus InjectedDeterminismTest::injected_;
kernel::InjectedCorpus InjectedDeterminismTest::triage_injected_;

TEST_F(InjectedDeterminismTest, TriageTiersAndRanksAreConfigInvariant)
{
    // The triage contract: tiers and ranks are byte-identical across
    // threads {1, 4}, whichever worker filled the shared query cache
    // first. The digest is the rank-ordered report list, so a rank
    // permutation is as visible as a tier flip. (Triage with and without
    // the cache: TriageTest.RanksAreStableAcrossRunsAndCacheSettings.)
    std::string baseline = triageDigest(1);
    ASSERT_FALSE(baseline.empty());
    // Non-vacuity: both tier extremes are present in the baseline.
    ASSERT_NE(baseline.find("{confirmed}"), std::string::npos)
        << baseline;
    ASSERT_NE(baseline.find("{refuted}"), std::string::npos) << baseline;
    for (int threads : {1, 4})
        EXPECT_EQ(triageDigest(threads), baseline) << "threads=" << threads;
}

TEST_F(InjectedDeterminismTest, InjectedScoresAreEngineAndThreadInvariant)
{
    // The ground-truth scores are a *measurement* — they must not move
    // with the execution strategy. Scale-0.05 injected corpus: reports
    // byte-identical and precision/recall identical across threads
    // {1, 4}.
    ASSERT_GT(injected_.injections.size(), 10u);
    ScoredRun baseline = run(1);
    ASSERT_FALSE(baseline.digest.empty());
    // The clean-mix injected corpus scores perfectly in the reference
    // configuration (the bench gate's smoke invariant).
    EXPECT_EQ(baseline.score.total.fp, 0);
    EXPECT_EQ(baseline.score.total.fn, 0);
    EXPECT_EQ(baseline.score.total.tp,
              static_cast<int>(injected_.injections.size()));

    ScoredRun other = run(4);
    EXPECT_EQ(other.digest, baseline.digest);
    EXPECT_EQ(other.score.total.tp, baseline.score.total.tp);
    EXPECT_EQ(other.score.total.fp, baseline.score.total.fp);
    EXPECT_EQ(other.score.total.fn, baseline.score.total.fn);
    EXPECT_EQ(other.score.total.precision(),
              baseline.score.total.precision());
    EXPECT_EQ(other.score.total.recall(), baseline.score.total.recall());
    ASSERT_EQ(other.score.by_domain.size(), baseline.score.by_domain.size());
    for (const auto &[domain, counts] : baseline.score.by_domain) {
        const auto &oc = other.score.by_domain.at(domain);
        EXPECT_EQ(oc.precision(), counts.precision()) << domain;
        EXPECT_EQ(oc.recall(), counts.recall()) << domain;
    }
}

TEST_F(InjectedDeterminismTest, CompactionAndInterningDoNotMoveScores)
{
    // Ground-truth scores on the injected corpus must survive both
    // perf attacks: report digests and per-domain precision/recall are
    // identical with compaction on and off, across threads {1, 4}, with
    // the instantiation cache shared by every worker. (Interning against
    // none: TreeExecDifferential.)
    ScoredRun baseline = run(1, /*compact=*/false);
    ASSERT_FALSE(baseline.digest.empty());
    for (int threads : {1, 4}) {
        for (bool compact : {false, true}) {
            if (threads == 1 && !compact)
                continue;  // the baseline itself
            ScoredRun other = run(threads, compact);
            EXPECT_EQ(other.digest, baseline.digest)
                << "threads=" << threads << " compact=" << compact;
            EXPECT_EQ(other.score.total.tp, baseline.score.total.tp);
            EXPECT_EQ(other.score.total.fp, baseline.score.total.fp);
            EXPECT_EQ(other.score.total.fn, baseline.score.total.fn);
        }
    }
}

TEST_F(InjectedDeterminismTest, FingerprintsAreConfigInvariant)
{
    // The provenance contract: report fingerprints are a stable identity,
    // byte-identical across threads {1, 4} on the injected smoke corpus,
    // although the workers' cache hits and misses differ. Any
    // configuration leaking into the fingerprint recipe (e.g. cache
    // hit/miss evidence) breaks cross-run diffing and shows up here.
    std::string baseline = fingerprintDigest(1);
    ASSERT_FALSE(baseline.empty());
    EXPECT_EQ(fingerprintDigest(4), baseline);
}

/** @p journal with every query's cache_hit flag blanked. */
std::string
maskCacheHits(std::string journal)
{
    for (const std::string flag :
         {"\"cache_hit\":true", "\"cache_hit\":false"}) {
        for (size_t at = journal.find(flag); at != std::string::npos;
             at = journal.find(flag, at))
            journal.replace(at, flag.size(), "\"cache_hit\":_");
    }
    return journal;
}

TEST_F(InjectedDeterminismTest, JournalDiffersAcrossThreadsOnlyInCacheHitFlags)
{
    // The journal's determinism contract (docs/PROVENANCE.md): runs at
    // one thread journal the same bytes. Above one thread the workers
    // share the query cache, so whether a query was answered from it
    // depends on which worker solved its formula first: only the
    // per-query cache_hit flags may differ.
    const std::string one = triageJournal(1);
    ASSERT_NE(one.find("\"cache_hit\":"), std::string::npos);
    ASSERT_NE(one.find("\"tier\":"), std::string::npos);
    EXPECT_EQ(triageJournal(1), one);
    const std::string masked = maskCacheHits(one);
    ASSERT_EQ(masked.find("\"cache_hit\":t"), std::string::npos);
    ASSERT_EQ(masked.find("\"cache_hit\":f"), std::string::npos);
    for (int run = 0; run < 2; run++)
        EXPECT_EQ(maskCacheHits(triageJournal(4)), masked) << "run " << run;
}

TEST_F(AnalyzerDeterminismTest, CacheDoesNotChangeReportCount)
{
    // Cheap cross-check on the Figure 9 example alone: the shared caches
    // must not create or mask reports, here between one worker and four
    // (the caches against none: TreeExecDifferential).
    kernel::Corpus empty;
    std::string one = runDigest(empty, 1);
    EXPECT_EQ(runDigest(empty, 4), one);
    EXPECT_NE(one.find("idmouse_open"), std::string::npos)
        << "Figure 9 bug not reported; digest:\n"
        << one;
}

/** Figure 9's caller with its wrapper call renamed to @p callee: a
 *  report here needs @p callee's computed summary. */
std::string
figure9Caller(const std::string &name, const std::string &callee)
{
    return "int " + name + "(struct usb_interface *interface) {\n"
           "    int result;\n"
           "    result = " + callee + "(interface);\n"
           "    if (result)\n"
           "        goto error;\n"
           "    result = idmouse_create_image(interface);\n"
           "    if (result)\n"
           "        goto error;\n"
           "    usb_autopm_put_interface(interface);\n"
           "error:\n"
           "    return result;\n"
           "}\n";
}

/** A call wrapper that passes @p callee's result through unchanged. */
std::string
passThrough(const std::string &name, const std::string &callee)
{
    return "int " + name + "(struct usb_interface *intf) {\n"
           "    int status;\n"
           "    status = " + callee + "(intf);\n"
           "    return status;\n"
           "}\n";
}

/** wrap0 wraps Figure 9's get, each wrapK passes wrapK-1 through, and
 *  topK is Figure 9's caller of wrapK: topK's report exists only if every
 *  summary below it was computed before topK ran. */
std::string
wrapperChain(int depth)
{
    std::string src;
    std::string callee = "usb_autopm_get_interface";
    for (int i = 0; i < depth; i++) {
        std::string wrap = "wrap" + std::to_string(i);
        src += passThrough(wrap, callee);
        src += figure9Caller("top" + std::to_string(i), wrap);
        callee = wrap;
    }
    return src;
}

/** Analyzes @p source (plus Figure 9) with 1 and 8 workers, expects
 *  the two digests to match byte for byte, reports in order included,
 *  and returns the single-worker digest. */
std::string
digestAtOneAndEightWorkers(const std::string &source)
{
    kernel::Corpus corpus;
    corpus.files.push_back({"scheduler.c", source});
    std::string baseline = runDigest(corpus, 1);
    EXPECT_EQ(runDigest(corpus, 8), baseline);
    return baseline;
}

TEST(SccScheduler, DeepChainFinishesAtEightWorkers)
{
    // 5,000 singleton SCCs, each ready only once the one below is done:
    // seven workers wait on the ready queue for the whole run.
    std::string src;
    for (int i = 0; i < 5000; i++) {
        std::string callee = i ? "chain" + std::to_string(i - 1)
                               : std::string("pm_runtime_get_sync");
        src += "void chain" + std::to_string(i) +
               "(struct device *dev) { " + callee + "(dev); }\n";
    }
    digestAtOneAndEightWorkers(src);
}

TEST(SccScheduler, WideFanInFinishesAtEightWorkers)
{
    // 2,000 callers of one wrapper all become ready at once when it
    // finishes; each reports Figure 9's bug through its summary.
    std::string src;
    for (int i = 0; i < 2000; i++)
        src += figure9Caller("fan" + std::to_string(i),
                             "usb_autopm_get_interface");
    EXPECT_NE(digestAtOneAndEightWorkers(src).find("fan1999"),
              std::string::npos);
}

TEST(SccScheduler, WrapperChainReportsMatchOneWorker)
{
    // Callers at every depth interleave with the chain.
    std::string digest = digestAtOneAndEightWorkers(wrapperChain(64));
    for (int i = 0; i < 64; i++)
        EXPECT_NE(digest.find("top" + std::to_string(i) + ": refcount"),
                  std::string::npos)
            << "top" << i << " not reported";
}

TEST(SccScheduler, CalleesFinishBeforeCallersStart)
{
    // The dependency order itself: at 8 workers, every analyzed
    // function's span starts after the spans of all its analyzed callees
    // have ended (steady-clock times, ordered by the ready queue's lock).
    analysis::AnalyzerOptions opts;
    opts.threads = 8;
    opts.tracer = std::make_shared<obs::Tracer>();
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(kFigure9Source);
    tool.addSource(wrapperChain(32));
    tool.run();
    std::map<std::string, std::pair<uint64_t, uint64_t>> span_of;
    for (const auto &e : opts.tracer->sortedEvents()) {
        if (std::string(e.name) != "analyze-function")
            continue;
        for (const auto &[key, value] : e.args)
            if (key == "fn")
                span_of[value] = {e.start_ns, e.start_ns + e.dur_ns};
    }
    auto expectAfter = [&](const std::string &caller,
                           const std::string &callee) {
        ASSERT_TRUE(span_of.count(caller)) << caller;
        ASSERT_TRUE(span_of.count(callee)) << callee;
        EXPECT_GE(span_of[caller].first, span_of[callee].second)
            << caller << " started before " << callee << " finished";
    };
    expectAfter("idmouse_open", "usb_autopm_get_interface");
    expectAfter("wrap0", "usb_autopm_get_interface");
    for (int i = 0; i < 32; i++) {
        std::string wrap = "wrap" + std::to_string(i);
        expectAfter("top" + std::to_string(i), wrap);
        if (i)
            expectAfter(wrap, "wrap" + std::to_string(i - 1));
    }
}

/** A store that breaks its never-throw contract on one function, so
 *  the fault escapes every isolation layer and reaches the scheduler. */
class ThrowingStore : public analysis::FunctionStore
{
  public:
    explicit ThrowingStore(std::string victim) : victim_(std::move(victim))
    {
    }
    uint64_t configFingerprint() const override { return 0; }
    Action
    lookup(const Key &, const LookupContext &,
           const summary::DomainTable &) override
    {
        return {};
    }
    size_t
    record(const Key &key, analysis::FnStatus, const std::string &, bool,
           const summary::FunctionSummary *,
           const std::vector<analysis::BugReport> &) override
    {
        if (key.function == victim_)
            throw std::runtime_error("store fault on " + victim_);
        return 0;
    }
    void checkpoint(uint64_t) override {}
    IoStats ioStats() const override { return {}; }

  private:
    std::string victim_;
};

TEST(SccScheduler, WorkerFailureStopsTheRunAndRethrows)
{
    // A fault in the middle of a deep chain (workers idle on the ready
    // queue) and of a wide fan-in (workers busy on sibling SCCs) must
    // stop the traversal, join every worker and surface on the calling
    // thread, at one worker and at eight.
    std::string chain, fan = passThrough("hub", "pm_runtime_get_sync");
    for (int i = 0; i < 1000; i++) {
        chain += passThrough("chain" + std::to_string(i),
                             i ? "chain" + std::to_string(i - 1)
                               : std::string("pm_runtime_get_sync"));
        fan += figure9Caller("fan" + std::to_string(i), "hub");
    }
    for (const auto &[source, victim] :
         {std::pair<std::string, std::string>{chain, "chain500"},
          {fan, "fan500"}}) {
        for (int threads : {1, 8}) {
            ir::Module mod = frontend::compile(source);
            summary::SummaryDb db;
            summary::loadSpecsInto(kernel::dpmSpecText(), db);
            analysis::AnalyzerOptions opts;
            opts.threads = threads;
            opts.store = std::make_shared<ThrowingStore>(victim);
            analysis::Analyzer analyzer(mod, db, opts);
            EXPECT_THROW(analyzer.run(), std::runtime_error)
                << victim << " threads=" << threads;
        }
    }
}

} // anonymous namespace
} // namespace rid
