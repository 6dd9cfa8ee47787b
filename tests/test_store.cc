/**
 * @file
 * Durable analysis store tests: WAL framing and recovery at every
 * truncation point, the supervisor's retry/quarantine ladder, and the
 * crash-safety contract end to end through the Rid façade — a killed
 * (truncated) store resumes to reports byte-identical to a cold run,
 * corruption falls back to clean re-analysis of only the affected keys,
 * and a config change invalidates every key.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/rid.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "obs/failpoint.h"
#include "obs/provenance.h"
#include "store/store.h"
#include "store/supervisor.h"
#include "store/wal.h"
#include "summary/spec.h"

namespace rid {
namespace {

namespace fs = std::filesystem;

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** A fresh, empty directory under the test temp root. */
std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "rid_store_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

// ------------------------------------------------------------------ WAL

TEST(Wal, FramesRoundTripThroughScan)
{
    std::string log = store::encodeWalHeader();
    log += store::encodeWalFrame(1, "hello");
    log += store::encodeWalFrame(2, "");
    log += store::encodeWalFrame(1, std::string(1000, 'x'));

    store::WalScan scan = store::scanWal(log);
    EXPECT_TRUE(scan.header_ok);
    ASSERT_EQ(scan.frames.size(), 3u);
    EXPECT_EQ(scan.frames[0].type, 1);
    EXPECT_EQ(scan.frames[0].payload, "hello");
    EXPECT_EQ(scan.frames[0].offset, store::kWalHeaderSize);
    EXPECT_EQ(scan.frames[1].type, 2);
    EXPECT_TRUE(scan.frames[1].payload.empty());
    EXPECT_EQ(scan.frames[2].payload.size(), 1000u);
    EXPECT_EQ(scan.torn_frames, 0u);
    EXPECT_EQ(scan.durable_size, log.size());
}

TEST(Wal, TornTailIsDroppedAtEveryCutPoint)
{
    std::string log = store::encodeWalHeader();
    std::vector<size_t> frame_ends;
    for (int k = 0; k < 4; k++) {
        log += store::encodeWalFrame(1, "payload-" + std::to_string(k));
        frame_ends.push_back(log.size());
    }
    // Kill the writer at every byte offset: the scan must recover
    // exactly the frames wholly before the cut and report the tail torn.
    for (size_t cut = store::kWalHeaderSize; cut < log.size(); cut++) {
        const std::string prefix = log.substr(0, cut);
        store::WalScan scan = store::scanWal(prefix);
        ASSERT_TRUE(scan.header_ok) << "cut " << cut;
        size_t complete = 0;
        while (complete < frame_ends.size() &&
               frame_ends[complete] <= cut)
            complete++;
        EXPECT_EQ(scan.frames.size(), complete) << "cut " << cut;
        EXPECT_LE(scan.durable_size, cut) << "cut " << cut;
        if (complete < frame_ends.size() &&
            (complete == 0 ? store::kWalHeaderSize
                           : frame_ends[complete - 1]) < cut) {
            EXPECT_GE(scan.torn_frames, 1u) << "cut " << cut;
        }
    }
}

TEST(Wal, CorruptMiddleFrameIsSkippedAndResynced)
{
    std::string log = store::encodeWalHeader();
    log += store::encodeWalFrame(1, "first");
    size_t second_at = log.size();
    log += store::encodeWalFrame(1, "second");
    log += store::encodeWalFrame(1, "third");

    // Flip one payload byte of the middle frame: its CRC no longer
    // matches, the scan skips forward to the next frame magic, and only
    // that one record is lost.
    std::string corrupt = log;
    corrupt[second_at + store::kFrameHeaderSize] ^= 0x40;
    store::WalScan scan = store::scanWal(corrupt);
    EXPECT_TRUE(scan.header_ok);
    ASSERT_EQ(scan.frames.size(), 2u);
    EXPECT_EQ(scan.frames[0].payload, "first");
    EXPECT_EQ(scan.frames[1].payload, "third");
    EXPECT_GE(scan.torn_frames, 1u);
    EXPECT_EQ(scan.durable_size, corrupt.size());
}

TEST(Wal, BadHeaderYieldsNoFrames)
{
    EXPECT_FALSE(store::scanWal("").header_ok);
    EXPECT_FALSE(store::scanWal("short").header_ok);

    std::string wrong_magic = store::encodeWalHeader();
    wrong_magic[0] = 'X';
    wrong_magic += store::encodeWalFrame(1, "data");
    store::WalScan scan = store::scanWal(wrong_magic);
    EXPECT_FALSE(scan.header_ok);
    EXPECT_TRUE(scan.frames.empty());

    std::string wrong_version = store::encodeWalHeader();
    wrong_version[8] = 0x7f; // version u32 lives at offset 8
    wrong_version += store::encodeWalFrame(1, "data");
    EXPECT_FALSE(store::scanWal(wrong_version).header_ok);
}

TEST(WalWriter, ResumeTruncatesTornTailAndContinues)
{
    std::string dir = freshDir("walwriter");
    std::string path = dir + "/test.wal";

    store::WalWriter writer;
    ASSERT_TRUE(writer.open(path, /*fresh=*/true));
    ASSERT_TRUE(writer.appendFrame(1, "alpha"));
    ASSERT_TRUE(writer.appendFrame(1, "beta"));
    ASSERT_TRUE(writer.sync());
    writer.close();

    // Simulate a kill mid-append: garbage (a partial frame) at the tail.
    std::string bytes = slurpFile(path);
    writeFile(path, bytes + "RIDF\x01partial");

    const std::string torn = slurpFile(path);
    store::WalScan scan = store::scanWal(torn);
    ASSERT_TRUE(scan.header_ok);
    EXPECT_EQ(scan.frames.size(), 2u);
    EXPECT_EQ(scan.durable_size, bytes.size());

    // Reopening at durable_size drops the torn tail; new appends land
    // cleanly after the surviving frames.
    store::WalWriter resumed;
    ASSERT_TRUE(resumed.open(path, /*fresh=*/false, scan.durable_size));
    ASSERT_TRUE(resumed.appendFrame(1, "gamma"));
    ASSERT_TRUE(resumed.sync());
    resumed.close();

    // Frame payloads are views into the scanned bytes: keep them alive.
    const std::string resumed_bytes = slurpFile(path);
    store::WalScan after = store::scanWal(resumed_bytes);
    ASSERT_EQ(after.frames.size(), 3u);
    EXPECT_EQ(after.frames[2].payload, "gamma");
    EXPECT_EQ(after.torn_frames, 0u);
}

// ----------------------------------------------------------- supervisor

TEST(Supervisor, CleanOutcomesAreLoadEligible)
{
    for (analysis::FnStatus s :
         {analysis::FnStatus::Ok, analysis::FnStatus::Truncated}) {
        store::SupervisorDecision d =
            store::superviseResume({s, 0, ""}, 10.0, 1000);
        EXPECT_EQ(d.kind, store::SupervisorDecision::Kind::LoadEligible);
    }
}

TEST(Supervisor, FailuresClimbTheHalvingLadder)
{
    auto retry = [](uint32_t attempts) {
        return store::superviseResume(
            {analysis::FnStatus::Timeout, attempts, "budget: deadline"},
            8.0, 1600);
    };
    store::SupervisorDecision first = retry(1);
    EXPECT_EQ(first.kind, store::SupervisorDecision::Kind::Retry);
    EXPECT_DOUBLE_EQ(first.retry_deadline_seconds, 4.0);
    EXPECT_EQ(first.retry_fuel, 800u);

    store::SupervisorDecision second = retry(2);
    EXPECT_EQ(second.kind, store::SupervisorDecision::Kind::Retry);
    EXPECT_DOUBLE_EQ(second.retry_deadline_seconds, 2.0);
    EXPECT_EQ(second.retry_fuel, 400u);
}

TEST(Supervisor, UnbudgetedRunsRetryUnderTheFallbackCaps)
{
    // A previously hung function must not run unbounded again even when
    // the run itself configures no budget.
    store::SupervisorDecision d = store::superviseResume(
        {analysis::FnStatus::Error, 1, "boom"}, 0, 0);
    ASSERT_EQ(d.kind, store::SupervisorDecision::Kind::Retry);
    // One prior failure: half of the 5 s and 50,000-fuel fallback caps.
    EXPECT_DOUBLE_EQ(d.retry_deadline_seconds, 2.5);
    EXPECT_EQ(d.retry_fuel, 25000u);
}

TEST(Supervisor, LadderExhaustionQuarantinesWithAProvenanceNote)
{
    store::SupervisorDecision d = store::superviseResume(
        {analysis::FnStatus::Degraded, 3, "injected fault"}, 10.0, 1000);
    EXPECT_EQ(d.kind, store::SupervisorDecision::Kind::Quarantine);
    EXPECT_NE(d.note.find("quarantined after 3 failed attempt(s)"),
              std::string::npos)
        << d.note;
    EXPECT_NE(d.note.find("degraded"), std::string::npos) << d.note;
    EXPECT_NE(d.note.find("injected fault"), std::string::npos) << d.note;
}

// --------------------------------------------------- config fingerprint

TEST(StoreConfig, FingerprintTracksSpecsAndOutputAffectingOptions)
{
    summary::SummaryDb empty_db, dpm_db;
    summary::loadSpecsInto(kernel::dpmSpecText(), dpm_db);
    analysis::AnalyzerOptions opts;

    uint64_t base = store::configFingerprint(dpm_db, opts);
    EXPECT_EQ(base, store::configFingerprint(dpm_db, opts));
    EXPECT_NE(base, store::configFingerprint(empty_db, opts));

    analysis::AnalyzerOptions capped = opts;
    capped.max_paths = 7;
    EXPECT_NE(base, store::configFingerprint(dpm_db, capped));

    analysis::AnalyzerOptions filtered = opts;
    filtered.enabled_domains = {"ref"};
    EXPECT_NE(base, store::configFingerprint(dpm_db, filtered));

    // The thread count is pinned output-identical by the determinism
    // suite and must NOT invalidate the store.
    analysis::AnalyzerOptions tuned = opts;
    tuned.threads = 4;
    EXPECT_EQ(base, store::configFingerprint(dpm_db, tuned));
}

TEST(StoreConfig, FingerprintOfDpmDefaultsIsPinned)
{
    // Existing stores resume only while this value holds: options that
    // leave the analysis (such as the interning toggle, always on) must
    // keep hashing what they held.
    summary::SummaryDb dpm_db;
    summary::loadSpecsInto(kernel::dpmSpecText(), dpm_db);
    EXPECT_EQ(store::configFingerprint(dpm_db, analysis::AnalyzerOptions{}),
              0x32cf3959d139bfbaull);
}

// ----------------------------------------------------------- end to end

class StoreEndToEnd : public ::testing::Test
{
  protected:
    static kernel::Corpus corpus_;

    static void
    SetUpTestSuite()
    {
        corpus_ = kernel::generateCorpus(
            kernel::CorpusMix::paperCalibrated(0.001));
    }

    void TearDown() override
    {
        obs::FailpointRegistry::instance().disarm();
    }

    static std::unique_ptr<Rid>
    makeTool(const std::string &store_dir, bool resume,
             const std::string &failpoints = "", int threads = 1)
    {
        analysis::AnalyzerOptions opts;
        opts.store_path = store_dir;
        opts.resume = resume;
        opts.failpoints = failpoints;
        opts.threads = threads;
        auto tool = std::make_unique<Rid>(opts);
        tool->loadSpecText(kernel::dpmSpecText());
        for (const auto &file : corpus_.files)
            tool->addSource(file.text);
        return tool;
    }

    /** Byte-identity oracle: the full provenance journal of a run. */
    static std::string
    journalOf(const RunResult &result)
    {
        return obs::renderJournal(provenanceRecords(result));
    }

    /**
     * The determinism-suite digest: sorted report multiset, computed
     * summaries, diagnostics. Unlike the journal it excludes per-query
     * cache-hit evidence, which legitimately differs between a cold run
     * and a partial resume (replayed functions issue no queries, so the
     * shared cache is warmer or colder when re-executed functions run).
     */
    static std::string
    digestOf(const Rid &tool, const RunResult &result)
    {
        std::multiset<std::string> lines;
        for (const auto &report : result.reports)
            lines.insert(report.str());
        std::string out;
        for (const auto &line : lines)
            out += line + "\n";
        out += "--- summaries ---\n";
        out += tool.exportSummaries();
        out += "--- diagnostics ---\n";
        for (const auto &d : result.diagnostics)
            out += d.function + " " + analysis::fnStatusName(d.status) +
                   " " + d.reason + "\n";
        return out;
    }
};

kernel::Corpus StoreEndToEnd::corpus_;

TEST_F(StoreEndToEnd, WarmResumeReplaysEverythingByteIdentically)
{
    // Baseline without any store.
    Rid plain;
    plain.loadSpecText(kernel::dpmSpecText());
    for (const auto &file : corpus_.files)
        plain.addSource(file.text);
    RunResult plain_result = plain.run();
    ASSERT_FALSE(plain_result.reports.empty());
    std::string oracle = journalOf(plain_result);

    // Cold store run: recording must not perturb analysis.
    std::string dir = freshDir("warm_resume");
    auto cold = makeTool(dir, /*resume=*/false);
    RunResult cold_result = cold->run();
    EXPECT_EQ(journalOf(cold_result), oracle);
    ASSERT_TRUE(cold_result.stats.store.active);
    EXPECT_EQ(cold_result.stats.store.hits, 0u);
    EXPECT_GT(cold_result.stats.store.misses, 0u);
    EXPECT_GT(cold_result.stats.store.bytes_appended, 0u);
    EXPECT_EQ(cold_result.stats.store.failed_writes, 0u);

    // Warm resume on the unchanged corpus: every tracked function
    // replays — hit rate 1.0, zero symbolic execution, and the reports
    // (and their journal) are byte-identical.
    const std::string cold_wal = slurpFile(dir + "/analysis.wal");
    auto warm = makeTool(dir, /*resume=*/true);
    RunResult warm_result = warm->run();
    EXPECT_EQ(journalOf(warm_result), oracle);
    ASSERT_TRUE(warm_result.stats.store.active);
    EXPECT_GT(warm_result.stats.store.hits, 0u);
    EXPECT_EQ(warm_result.stats.store.misses, 0u);
    EXPECT_DOUBLE_EQ(warm_result.stats.store.hitRate(), 1.0);
    EXPECT_EQ(warm_result.stats.functions_analyzed, 0u);
    EXPECT_EQ(warm_result.stats.symexec_seconds, 0.0);
    EXPECT_GT(warm_result.stats.store.loaded_records, 0u);
    // Nothing was recorded, so no checkpoint had anything to commit: the
    // log is left exactly as the cold run wrote it.
    EXPECT_EQ(warm_result.stats.store.bytes_appended, 0u);
    EXPECT_EQ(slurpFile(dir + "/analysis.wal"), cold_wal);

    // The diagnostics (e.g. truncation notes) replay too: RunResult
    // surfaces the same per-function records either way.
    EXPECT_EQ(warm_result.diagnostics.size(),
              cold_result.diagnostics.size());
}

TEST_F(StoreEndToEnd, FourWorkerStoreMatchesOneWorkerAndResumesAtEither)
{
    // Reports in output order with their identities: the same at every
    // thread count (the journal is not, as its cache_hit flags vary).
    auto ordered = [](const RunResult &result) {
        std::string out;
        for (const auto &report : result.reports)
            out += report.str() + " " +
                   std::to_string(report.fingerprint) + "\n";
        return out;
    };
    const std::string dir1 = freshDir("threads_1");
    auto one = makeTool(dir1, /*resume=*/false);
    RunResult one_result = one->run();
    ASSERT_FALSE(one_result.reports.empty());
    // A cold scan misses once per tracked function.
    const size_t tracked = one_result.stats.store.misses;
    ASSERT_GT(tracked, 0u);

    // Four workers append records while they read the module's
    // fingerprints.
    const std::string dir4 = freshDir("threads_4");
    auto four = makeTool(dir4, /*resume=*/false, "", /*threads=*/4);
    RunResult four_result = four->run();
    EXPECT_EQ(ordered(four_result), ordered(one_result));
    EXPECT_EQ(digestOf(*four, four_result), digestOf(*one, one_result));
    EXPECT_EQ(four_result.stats.store.misses, tracked);
    EXPECT_EQ(four_result.stats.store.failed_writes, 0u);

    // The 4-thread store replays every tracked function, resumed with
    // four workers or with one (a warm resume appends nothing, so both
    // read the store as the cold scan wrote it).
    for (int threads : {4, 1}) {
        SCOPED_TRACE("resume at threads=" + std::to_string(threads));
        auto warm = makeTool(dir4, /*resume=*/true, "", threads);
        RunResult warm_result = warm->run();
        EXPECT_EQ(ordered(warm_result), ordered(one_result));
        EXPECT_EQ(digestOf(*warm, warm_result), digestOf(*one, one_result));
        EXPECT_EQ(warm_result.stats.store.hits, tracked);
        EXPECT_EQ(warm_result.stats.store.misses, 0u);
        EXPECT_EQ(warm_result.stats.functions_analyzed, 0u);
        EXPECT_EQ(warm_result.stats.store.bytes_appended, 0u);
    }
}

TEST_F(StoreEndToEnd, KilledRunResumesToByteIdenticalReports)
{
    std::string dir = freshDir("kill_resume_seed");
    auto cold = makeTool(dir, /*resume=*/false);
    RunResult cold_result = cold->run();
    std::string oracle = digestOf(*cold, cold_result);
    ASSERT_FALSE(cold_result.reports.empty());

    std::string wal = slurpFile(dir + "/analysis.wal");
    ASSERT_GT(wal.size(), store::kWalHeaderSize);

    // A SIGKILL leaves an arbitrary prefix of the log. Model it as
    // truncation at several fractions (including cuts landing mid-frame)
    // and require every resume to reproduce the cold run byte for byte.
    for (double frac : {0.25, 0.5, 0.8, 0.97}) {
        auto cut = static_cast<size_t>(
            static_cast<double>(wal.size()) * frac);
        if (cut < store::kWalHeaderSize)
            cut = store::kWalHeaderSize;
        std::string dir_k =
            freshDir("kill_resume_" + std::to_string(cut));
        writeFile(dir_k + "/analysis.wal", wal.substr(0, cut));

        auto resumed = makeTool(dir_k, /*resume=*/true);
        RunResult result = resumed->run();
        EXPECT_EQ(digestOf(*resumed, result), oracle) << "cut at " << cut;
        ASSERT_TRUE(result.stats.store.active);
        // The surviving prefix is real work saved; the lost tail is
        // re-executed.
        if (cut > wal.size() / 3) {
            EXPECT_GT(result.stats.store.hits, 0u) << "cut at " << cut;
        }
        EXPECT_GT(result.stats.store.misses, 0u) << "cut at " << cut;
    }
}

TEST_F(StoreEndToEnd, FlippedCrcByteFallsBackOnlyForTheAffectedKeys)
{
    std::string dir = freshDir("crc_flip_seed");
    auto cold = makeTool(dir, /*resume=*/false);
    std::string oracle = digestOf(*cold, cold->run());

    std::string wal_path = dir + "/analysis.wal";
    std::string wal = slurpFile(wal_path);
    store::WalScan scan = store::scanWal(wal);
    ASSERT_GT(scan.frames.size(), 4u);

    // Flip one payload byte of a mid-log frame: exactly the records the
    // corruption lands in are dropped; everything else still replays.
    const store::WalFrame &victim = scan.frames[scan.frames.size() / 2];
    wal[victim.offset + store::kFrameHeaderSize] ^= 0x01;
    std::string dir_c = freshDir("crc_flip");
    writeFile(dir_c + "/analysis.wal", wal);

    auto resumed = makeTool(dir_c, /*resume=*/true);
    RunResult result = resumed->run();
    EXPECT_EQ(digestOf(*resumed, result), oracle);
    ASSERT_TRUE(result.stats.store.active);
    EXPECT_GT(result.stats.store.torn_frames, 0u);
    EXPECT_GT(result.stats.store.hits, 0u);
    EXPECT_GT(result.stats.store.misses, 0u);
}

TEST_F(StoreEndToEnd, WrongVersionHeaderStartsFreshAndRerunsCleanly)
{
    std::string dir = freshDir("wrong_version");
    auto cold = makeTool(dir, /*resume=*/false);
    std::string oracle = journalOf(cold->run());

    std::string wal_path = dir + "/analysis.wal";
    std::string wal = slurpFile(wal_path);
    wal[8] = 0x7f; // version field
    writeFile(wal_path, wal);

    auto resumed = makeTool(dir, /*resume=*/true);
    RunResult result = resumed->run();
    EXPECT_EQ(journalOf(result), oracle);
    ASSERT_TRUE(result.stats.store.active);
    // Nothing in an unknown-version log is trusted: no records load,
    // everything re-analyzes.
    EXPECT_EQ(result.stats.store.loaded_records, 0u);
    EXPECT_EQ(result.stats.store.hits, 0u);
    EXPECT_GT(result.stats.store.misses, 0u);
}

TEST_F(StoreEndToEnd, StaleConfigFingerprintMissesEveryKey)
{
    std::string dir = freshDir("stale_config");
    auto cold = makeTool(dir, /*resume=*/false);
    cold->run();

    // Same corpus, different output-affecting configuration: every key's
    // config fingerprint mismatches, so nothing replays and the run
    // re-analyzes cleanly under the new options.
    analysis::AnalyzerOptions opts;
    opts.store_path = dir;
    opts.resume = true;
    opts.max_paths = 37;
    Rid changed(opts);
    changed.loadSpecText(kernel::dpmSpecText());
    for (const auto &file : corpus_.files)
        changed.addSource(file.text);
    RunResult result = changed.run();
    ASSERT_TRUE(result.stats.store.active);
    EXPECT_GT(result.stats.store.loaded_records, 0u);
    EXPECT_EQ(result.stats.store.hits, 0u);
    EXPECT_GT(result.stats.store.misses, 0u);

    // And the re-analysis matches a cold run under the same new options.
    analysis::AnalyzerOptions fresh_opts;
    fresh_opts.max_paths = 37;
    Rid fresh(fresh_opts);
    fresh.loadSpecText(kernel::dpmSpecText());
    for (const auto &file : corpus_.files)
        fresh.addSource(file.text);
    EXPECT_EQ(journalOf(result), journalOf(fresh.run()));
}

/** Three functions; `caller` calls `helper`, `unrelated` stands alone. */
const char *kUpconeV1 = R"(
int helper(struct device *d, int x) {
    int s;
    s = pm_runtime_get_sync(d);
    if (x < 0) {
        pm_runtime_put(d);
        return -1;
    }
    return 0;
}
int caller(struct device *d, int x) {
    int r;
    r = helper(d, x);
    if (r)
        return r;
    pm_runtime_put(d);
    return 0;
}
int unrelated(struct device *d) {
    int t;
    t = pm_runtime_get_sync(d);
    pm_runtime_put(d);
    return 0;
}
)";
// kUpconeV2 edits only `helper` (an extra statement changes its body
// fingerprint without changing behavior).
const char *kUpconeV2 = R"(
int helper(struct device *d, int x) {
    int s;
    int note;
    note = x;
    s = pm_runtime_get_sync(d);
    if (note < 0) {
        pm_runtime_put(d);
        return -1;
    }
    return 0;
}
int caller(struct device *d, int x) {
    int r;
    r = helper(d, x);
    if (r)
        return r;
    pm_runtime_put(d);
    return 0;
}
int unrelated(struct device *d) {
    int t;
    t = pm_runtime_get_sync(d);
    pm_runtime_put(d);
    return 0;
}
)";

/** One DPM-spec scan of @p source against the store in @p dir. */
RunResult
scanWithStore(const std::string &dir, bool resume, const char *source)
{
    analysis::AnalyzerOptions opts;
    opts.store_path = dir;
    opts.resume = resume;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(source);
    return tool.run();
}

TEST_F(StoreEndToEnd, ChangedFunctionAndItsCallersReexecute)
{
    std::string dir = freshDir("upcone");
    scanWithStore(dir, false, kUpconeV1);

    RunResult result = scanWithStore(dir, true, kUpconeV2);
    ASSERT_TRUE(result.stats.store.active);
    // `helper` changed, so it re-executes — and `caller` sits in its
    // up-cone (its recorded reports could depend on helper's summary),
    // so it must re-execute too. `unrelated` replays.
    EXPECT_EQ(result.stats.store.hits, 1u);
    EXPECT_EQ(result.stats.store.misses, 2u);
    EXPECT_EQ(result.stats.functions_analyzed, 2u);
}

/** An edited callee whose caller cone spans four SCCs: `cone_leaf`,
 *  the cycle {`cone_ping`, `cone_pong`}, `cone_top` and `cone_root`.
 *  `cone_side` stands alone. @p edited adds a statement to `cone_leaf`
 *  that changes its body fingerprint, not its behavior. */
std::string
coneSource(bool edited)
{
    return std::string(R"(
int cone_leaf(struct device *d, int x) {
    int s;
)") + (edited ? "    int note;\n    note = x;\n" : "") + R"(
    s = pm_runtime_get_sync(d);
    if (x < 0) {
        pm_runtime_put(d);
        return -1;
    }
    return 0;
}
int cone_pong(struct device *d, int n);
int cone_ping(struct device *d, int n) {
    if (n > 0)
        return cone_pong(d, n - 1);
    return cone_leaf(d, n);
}
int cone_pong(struct device *d, int n) {
    if (n > 0)
        return cone_ping(d, n - 1);
    return 0;
}
int cone_top(struct device *d, int n) {
    int r;
    r = cone_ping(d, n);
    if (r)
        return r;
    pm_runtime_put(d);
    return 0;
}
int cone_root(struct device *d) {
    int r;
    r = cone_top(d, 2);
    return r;
}
int cone_side(struct device *d) {
    int t;
    t = pm_runtime_get_sync(d);
    pm_runtime_put(d);
    return 0;
}
)";
}

TEST_F(StoreEndToEnd, EditedConeResumesAlikeAtOneAndFourWorkers)
{
    // The corpus plus the cone file, against the store in @p dir.
    auto scan = [](const std::string &dir, bool resume, bool edited,
                   int threads) {
        auto tool = makeTool(dir, resume, "", threads);
        tool->addSource(coneSource(edited));
        return tool->run();
    };
    auto ordered = [](const RunResult &result) {
        std::string out;
        for (const auto &report : result.reports)
            out += report.str() + " " +
                   std::to_string(report.fingerprint) + "\n";
        return out;
    };

    const std::string cold_dir = freshDir("cone_cold");
    const RunResult cold = scan(cold_dir, false, false, 1);
    const size_t tracked = cold.stats.store.misses;
    const std::string cold_wal = slurpFile(cold_dir + "/analysis.wal");
    const RunResult oracle = scan(freshDir("cone_oracle"), false, true, 1);
    ASSERT_FALSE(oracle.reports.empty());

    // Both resumes start from a copy of the cold scan's store.
    const std::vector<std::string> cone = {"cone_leaf", "cone_ping",
                                           "cone_pong", "cone_root",
                                           "cone_top"};
    std::vector<std::vector<std::string>> appended_records;
    for (int threads : {1, 4}) {
        SCOPED_TRACE("resume at threads=" + std::to_string(threads));
        const std::string dir =
            freshDir("cone_resume_" + std::to_string(threads));
        writeFile(dir + "/analysis.wal", cold_wal);
        RunResult resumed = scan(dir, true, true, threads);
        EXPECT_EQ(ordered(resumed), ordered(oracle));
        // Exactly the edited function and its callers re-execute; the
        // rest of the corpus, `cone_side` included, replays.
        EXPECT_EQ(resumed.stats.store.misses, cone.size());
        EXPECT_EQ(resumed.stats.store.hits, tracked - cone.size());
        EXPECT_EQ(resumed.stats.store.retried, 0u);
        EXPECT_EQ(resumed.stats.store.failed_writes, 0u);

        // The records appended past the cold log, each a function frame
        // whose payload starts with the function name.
        const std::string wal = slurpFile(dir + "/analysis.wal");
        ASSERT_EQ(wal.compare(0, cold_wal.size(), cold_wal), 0);
        std::vector<std::string> records;
        std::vector<std::string> names;
        for (const auto &frame : store::scanWal(wal).frames) {
            if (frame.offset < cold_wal.size() ||
                frame.type != store::kFrameFunction)
                continue;
            records.emplace_back(frame.payload);
            uint32_t len = 0;
            for (int k = 0; k < 4; k++)
                len |= static_cast<uint32_t>(
                           static_cast<uint8_t>(frame.payload[k]))
                       << (8 * k);
            names.emplace_back(frame.payload.substr(4, len));
        }
        std::sort(records.begin(), records.end());
        std::sort(names.begin(), names.end());
        EXPECT_EQ(names, cone);
        appended_records.push_back(std::move(records));
    }
    EXPECT_EQ(appended_records[0], appended_records[1]);
}

TEST_F(StoreEndToEnd, EditedResumeCommitsItsRecordsAtASyncedCheckpoint)
{
    std::string dir = freshDir("edited_checkpoint");
    const std::string wal_path = dir + "/analysis.wal";
    scanWithStore(dir, false, kUpconeV1);
    const std::string cold_wal = slurpFile(wal_path);

    // The edit re-records `helper` and `caller`. Both records must be
    // followed by a checkpoint frame, which the store writes only
    // together with an fsync (failed_writes stays 0): a run killed after
    // it resumes with both records.
    RunResult edited = scanWithStore(dir, true, kUpconeV2);
    ASSERT_EQ(edited.stats.store.misses, 2u);
    EXPECT_EQ(edited.stats.store.failed_writes, 0u);
    const std::string edited_wal = slurpFile(wal_path);
    ASSERT_EQ(edited_wal.compare(0, cold_wal.size(), cold_wal), 0);
    store::WalScan scan_after = store::scanWal(edited_wal);
    std::vector<uint8_t> appended;
    for (const auto &frame : scan_after.frames)
        if (frame.offset >= cold_wal.size())
            appended.push_back(frame.type);
    EXPECT_EQ(appended,
              (std::vector<uint8_t>{store::kFrameFunction,
                                    store::kFrameFunction,
                                    store::kFrameCheckpoint}));
    EXPECT_EQ(edited.stats.store.bytes_appended,
              edited_wal.size() - cold_wal.size());

    // The records survive a kill right after that checkpoint: resuming
    // the committed log replays everything.
    RunResult again = scanWithStore(dir, true, kUpconeV2);
    EXPECT_EQ(again.stats.store.hits, 3u);
    EXPECT_EQ(again.stats.store.misses, 0u);
    EXPECT_EQ(again.stats.store.bytes_appended, 0u);
    EXPECT_EQ(slurpFile(wal_path), edited_wal);
}

TEST_F(StoreEndToEnd, FailingFunctionClimbsTheLadderIntoQuarantine)
{
    const char *source = R"(
int usb_autopm_get_interface(struct usb_interface *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
int victim_fn(struct usb_interface *interface) {
    int result;
    result = usb_autopm_get_interface(interface);
    if (result < 0)
        return result;
    usb_autopm_put_interface(interface);
    return 0;
}
void usb_autopm_put_interface(struct usb_interface *i);
)";
    const std::string fault = "analysis.symexec.path@victim_fn=always";
    auto scan = [&](bool resume, const std::string &failpoints) {
        analysis::AnalyzerOptions opts;
        opts.store_path = testing::TempDir() + "rid_store_ladder";
        opts.resume = resume;
        opts.failpoints = failpoints;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.addSource(source);
        RunResult result = tool.run();
        obs::FailpointRegistry::instance().disarm();
        return result;
    };
    fs::remove_all(testing::TempDir() + "rid_store_ladder");

    // Attempt 1 (cold): the injected fault degrades the victim.
    RunResult first = scan(false, fault);
    ASSERT_EQ(first.stats.functions_degraded, 1u);

    // Attempts 2 and 3 (resume): the supervisor retries under a halved
    // budget each time; the fault keeps firing.
    for (int attempt = 2; attempt <= 3; attempt++) {
        RunResult retry = scan(true, fault);
        EXPECT_EQ(retry.stats.store.retried, 1u) << "attempt " << attempt;
        EXPECT_EQ(retry.stats.store.quarantined, 0u);
        EXPECT_EQ(retry.stats.functions_degraded, 1u);
    }

    // Attempt 4: the ladder is exhausted — quarantined, a Degraded
    // diagnostic carries the provenance note, symexec never runs.
    RunResult fourth = scan(true, fault);
    EXPECT_EQ(fourth.stats.store.quarantined, 1u);
    EXPECT_EQ(fourth.stats.store.retried, 0u);
    bool noted = false;
    for (const auto &d : fourth.diagnostics) {
        if (d.function == "victim_fn") {
            EXPECT_EQ(d.status, analysis::FnStatus::Degraded);
            EXPECT_NE(d.reason.find("quarantined after 3 failed"),
                      std::string::npos)
                << d.reason;
            noted = true;
        }
    }
    EXPECT_TRUE(noted);

    // Even with the fault gone, the quarantine stands: the function is
    // not silently re-admitted (demote, don't delete — re-admission
    // needs a body/config change or a fresh store).
    RunResult fifth = scan(true, "");
    EXPECT_EQ(fifth.stats.store.quarantined, 1u);
    for (const auto &d : fifth.diagnostics) {
        if (d.function == "victim_fn") {
            EXPECT_EQ(d.status, analysis::FnStatus::Degraded);
        }
    }
}

TEST_F(StoreEndToEnd, StoreWriteFaultsNeverAlterAnalysisResults)
{
    // Baseline without a store.
    Rid plain;
    plain.loadSpecText(kernel::dpmSpecText());
    for (const auto &file : corpus_.files)
        plain.addSource(file.text);
    std::string oracle = journalOf(plain.run());

    // Every append faults; the run must be oblivious (results identical,
    // faults absorbed and counted).
    std::string dir = freshDir("append_fault");
    auto tool = makeTool(dir, /*resume=*/false, "store.append=always");
    RunResult result = tool->run();
    EXPECT_EQ(journalOf(result), oracle);
    ASSERT_TRUE(result.stats.store.active);
    EXPECT_GT(result.stats.store.failed_writes, 0u);
    EXPECT_EQ(result.stats.functions_degraded, 0u);
    EXPECT_EQ(result.stats.functions_error, 0u);
}

} // namespace
} // namespace rid
