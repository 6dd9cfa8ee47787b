/**
 * @file
 * Tests for the Section 5.4 abstraction extensions: bit-test modeling
 * and field-store tracking (frontend/lower.h LowerOptions).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sys/wait.h>

#include "core/rid.h"
#include "frontend/lower.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "summary/domain.h"

namespace rid {
namespace {

size_t
reportsWith(const char *source, bool bits, bool stores)
{
    frontend::LowerOptions lower;
    lower.model_bit_tests = bits;
    lower.model_field_stores = stores;
    Rid tool({}, lower);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(source);
    return tool.run().reports.size();
}

const char *kBitGuardedGet = R"(
int async_get(struct device *dev, int flags) {
    if (flags & 4)
        pm_runtime_get_noresume(dev);
    return 0;
}
)";

TEST(BitTests, FalsePositiveWithoutExtension)
{
    EXPECT_EQ(reportsWith(kBitGuardedGet, false, false), 1u);
}

TEST(BitTests, DistinguishableWithExtension)
{
    EXPECT_EQ(reportsWith(kBitGuardedGet, true, false), 0u);
}

TEST(BitTests, SameBitTwiceIsDeterministic)
{
    // Two tests of the same bit on the same value must agree: the
    // get/put pair is balanced on every feasible path.
    const char *source = R"(
int f(struct device *dev, int flags) {
    if (flags & 1)
        pm_runtime_get_noresume(dev);
    work(dev);
    if (flags & 1)
        pm_runtime_put_noidle(dev);
    return 0;
}
void work(struct device *dev);
)";
    EXPECT_GE(reportsWith(source, false, false), 1u);  // classic FP
    EXPECT_EQ(reportsWith(source, true, false), 0u);
}

TEST(BitTests, DifferentBitsTradeoffDocumented)
{
    // Guarding the get with bit 1 but the put with bit 2 is unbalanced.
    // Without the extension both branches look nondeterministic and the
    // imbalance is reported (as one of many overlapping pairs); with the
    // extension every path pair is distinguishable by its bit values, so
    // nothing is reported. The extension trades the Section 6.4 false
    // positives for possible false negatives of exactly this shape.
    const char *source = R"(
int f(struct device *dev, int flags) {
    if (flags & 1)
        pm_runtime_get_noresume(dev);
    if (flags & 2)
        pm_runtime_put_noidle(dev);
    return 0;
}
)";
    EXPECT_GE(reportsWith(source, false, false), 1u);
    EXPECT_EQ(reportsWith(source, true, false), 0u);
}

TEST(BitTests, BitLoweringEmitsSyntheticField)
{
    frontend::LowerOptions lower;
    lower.model_bit_tests = true;
    ir::Module m = frontend::compile(
        "int f(int flags) { return flags & 12; }", lower);
    bool found = false;
    const ir::Function *fn = m.find("f");
    for (size_t b = 0; b < fn->numBlocks(); b++) {
        for (const auto &in : fn->block(b).instrs) {
            if (in.op == ir::Opcode::FieldLoad &&
                in.field == "bits_12") {
                found = true;
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST(BitTests, NonConstantMaskStaysNondet)
{
    frontend::LowerOptions lower;
    lower.model_bit_tests = true;
    ir::Module m = frontend::compile(
        "int f(int a, int b) { return a & b; }", lower);
    const ir::Function *fn = m.find("f");
    int randoms = 0;
    for (size_t b = 0; b < fn->numBlocks(); b++)
        for (const auto &in : fn->block(b).instrs)
            if (in.op == ir::Opcode::Random)
                randoms++;
    EXPECT_EQ(randoms, 1);
}

const char *kListTrackedGet = R"(
int list_get(struct device *dev, struct list *busy) {
    if (probe_ready(dev)) {
        pm_runtime_get_noresume(dev);
        busy->head = dev;
    }
    return 0;
}
int probe_ready(struct device *dev);
)";

TEST(FieldStores, FalsePositiveWithoutExtension)
{
    EXPECT_EQ(reportsWith(kListTrackedGet, false, false), 1u);
}

TEST(FieldStores, DistinguishableWithExtension)
{
    EXPECT_EQ(reportsWith(kListTrackedGet, false, true), 0u);
}

TEST(FieldStores, LocalStoresDoNotDistinguish)
{
    // A store to a function-local object is invisible to callers; paths
    // differing only by it still form an IPP.
    const char *source = R"(
int f(struct device *dev) {
    struct tmp *scratch;
    if (probe_ready(dev)) {
        pm_runtime_get_noresume(dev);
        scratch->mark = 1;
    }
    return 0;
}
int probe_ready(struct device *dev);
)";
    EXPECT_EQ(reportsWith(source, false, true), 1u);
}

TEST(FieldStores, PropagateThroughCalleeSummaries)
{
    // The helper records the taken count in the caller-visible list;
    // its summary carries the store effect, so the caller's paths stay
    // distinguishable too.
    const char *source = R"(
void track_get(struct device *dev, struct list *busy) {
    pm_runtime_get_noresume(dev);
    busy->head = dev;
}
int maybe_get(struct device *dev, struct list *busy) {
    if (probe_ready(dev))
        track_get(dev, busy);
    return 0;
}
int probe_ready(struct device *dev);
)";
    EXPECT_EQ(reportsWith(source, false, true), 0u);
    EXPECT_EQ(reportsWith(source, false, false), 1u);
}

TEST(FieldStores, RealBugsStillDetected)
{
    const char *source = R"(
int f(struct device *dev) {
    int ret = pm_runtime_get_sync(dev);
    if (ret < 0)
        return ret;
    ret = op(dev);
    pm_runtime_put(dev);
    return ret;
}
int op(struct device *dev);
)";
    EXPECT_EQ(reportsWith(source, true, true), 1u);
}

TEST(FieldStores, StoreSetsSurviveSpecRoundTrip)
{
    frontend::LowerOptions lower;
    lower.model_field_stores = true;
    Rid tool({}, lower);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(R"(
void track_get(struct device *dev, struct list *busy) {
    pm_runtime_get_noresume(dev);
    busy->head = dev;
}
)");
    tool.run();
    std::string exported = tool.exportSummaries();
    EXPECT_NE(exported.find("store: [busy].head"), std::string::npos);

    Rid again({}, lower);
    again.loadSpecText(kernel::dpmSpecText());
    again.importSummaries(exported);
    const auto *s = again.summaries().find("track_get");
    ASSERT_NE(s, nullptr);
    ASSERT_FALSE(s->entries.empty());
    EXPECT_EQ(s->entries[0].stores.size(), 1u);
}

TEST(DomainTable, RefIsImplicitAndIpp)
{
    summary::DomainTable table;
    EXPECT_TRUE(table.contains(summary::kRefDomain));
    EXPECT_EQ(table.policyOf("ref"), summary::DomainPolicy::Ipp);
    EXPECT_FALSE(table.anyNonIpp());
    EXPECT_EQ(table.policyOf("unknown"), summary::DomainPolicy::Ipp);
    EXPECT_FALSE(table.contains("unknown"));
}

TEST(DomainTable, DeclareIsIdempotentButConflictChecked)
{
    summary::DomainTable table;
    using R = summary::DomainTable::DeclareResult;
    EXPECT_EQ(table.declare({"lock", summary::DomainPolicy::Balanced}),
              R::Added);
    EXPECT_EQ(table.declare({"lock", summary::DomainPolicy::Balanced}),
              R::Unchanged);
    EXPECT_EQ(table.declare({"lock", summary::DomainPolicy::Ipp}),
              R::Conflict);
    EXPECT_EQ(table.policyOf("lock"), summary::DomainPolicy::Balanced);
    EXPECT_TRUE(table.anyNonIpp());
}

TEST(DomainTable, ListTextIsNameSorted)
{
    summary::DomainTable table;
    table.declare({"lock", summary::DomainPolicy::Balanced});
    table.declare({"alloc", summary::DomainPolicy::Balanced});
    EXPECT_EQ(summary::listDomainsText(table),
              "alloc\tbalanced\nlock\tbalanced\nref\tipp\n");
}

const char *kLockLeakSource = R"(
int do_op(struct device *dev, int a);

int leaky(struct device *dev, int arg) {
    int ret;
    spin_lock(&dev->lock);
    ret = do_op(dev, arg);
    if (ret < 0)
        return ret;
    spin_unlock(&dev->lock);
    return 0;
}
)";

TEST(EnabledDomains, FilterSelectsWhichDomainsAreChecked)
{
    auto scan = [&](std::vector<std::string> domains) {
        Rid tool;
        tool.loadSpecText(kernel::lockSpecText());
        tool.options().enabled_domains = std::move(domains);
        tool.addSource(kLockLeakSource);
        return tool.run();
    };
    RunResult all = scan({});
    ASSERT_EQ(all.reports.size(), 1u);
    EXPECT_EQ(all.reports[0].domain, "lock");
    EXPECT_EQ(all.reports[0].kind, analysis::BugKind::Unbalanced);
    EXPECT_EQ(all.stats.reports_by_domain.at("lock"), 1u);

    EXPECT_EQ(scan({"lock"}).reports.size(), 1u);
    // With only `ref` enabled the lock seeds are never even seeded, so
    // the scan is silent.
    RunResult ref_only = scan({"ref"});
    EXPECT_TRUE(ref_only.reports.empty());
    EXPECT_TRUE(ref_only.stats.reports_by_domain.empty());
}

// --- ridc CLI: --list-domains / --domains, numeric flags ----------------

struct CliResult
{
    int exit_code = -1;
    std::string output;
};

CliResult
runCli(const std::string &args)
{
    CliResult r;
    std::string cmd = std::string(RIDC_PATH) + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return r;
    char buf[512];
    while (fgets(buf, sizeof(buf), pipe))
        r.output += buf;
    int status = pclose(pipe);
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

/** A temp path for @p name, prefixed with the running test's name so
 *  tests that share a file name do not race under `ctest -j`. */
std::string
tempPath(const std::string &name)
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + test->test_suite_name() + "." +
           test->name() + "." + name;
}

std::string
writeTemp(const std::string &name, const std::string &text)
{
    std::string path = tempPath(name);
    std::ofstream(path) << text;
    return path;
}

TEST(RidcCli, ListDomainsPrintsDeclaredDomains)
{
    std::string lock = writeTemp("cli_lock.spec",
                                 kernel::lockSpecText());
    std::string alloc = writeTemp("cli_alloc.spec",
                                  kernel::allocSpecText());
    CliResult r = runCli("--spec " + lock + " --spec " + alloc +
                         " --list-domains");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.output, "alloc\tbalanced\nlock\tbalanced\nref\tipp\n");
}

TEST(RidcCli, UnknownDomainIsAClearError)
{
    std::string lock = writeTemp("cli_lock.spec",
                                 kernel::lockSpecText());
    std::string src = writeTemp("cli_lock.c", kLockLeakSource);
    CliResult r = runCli("--spec " + lock + " --domains=locks " + src);
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("unknown domain 'locks'"), std::string::npos);
}

TEST(RidcCli, DomainsFilterControlsTheScan)
{
    std::string lock = writeTemp("cli_lock.spec",
                                 kernel::lockSpecText());
    std::string src = writeTemp("cli_lock.c", kLockLeakSource);
    CliResult leak = runCli("--spec " + lock + " --domains=lock " + src);
    EXPECT_EQ(leak.exit_code, 1);
    EXPECT_NE(leak.output.find("unbalanced at return"),
              std::string::npos);
    CliResult quiet = runCli("--spec " + lock + " --domains ref " + src);
    EXPECT_EQ(quiet.exit_code, 0);
    EXPECT_NE(quiet.output.find("0 report(s)"), std::string::npos);
}

TEST(RidcCli, NumericFlagsRejectGarbage)
{
    // Every numeric flag is parsed over its whole value: trailing junk,
    // a negative number, a non-finite one, and 0 where it means nothing
    // are usage errors that name the flag instead of silently becoming
    // 0, 1 or "unlimited".
    std::string lock = writeTemp("cli_lock.spec",
                                 kernel::lockSpecText());
    std::string src = writeTemp("cli_lock.c", kLockLeakSource);
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"--max-paths", "abc"},   {"--max-paths", "0"},
        {"--max-paths", "10x"},   {"--max-subcases", "0"},
        {"--max-subcases", "-3"}, {"--threads", "abc"},
        {"--threads", "-4"},      {"--threads", "0"},
        {"--deadline", "1.5s"},   {"--deadline", "-1"},
        {"--deadline", "nan"},    {"--fn-deadline", "inf"},
        {"--solver-fuel", "-1"},  {"--solver-fuel", "12abc"},
        {"--triage-fuel", "-5"},  {"--top", "3x"},
        {"--top", "-1"},
    };
    for (const auto &[flag, value] : bad) {
        CliResult r = runCli("--spec " + lock + " " + flag + " " + value +
                             " " + src);
        EXPECT_EQ(r.exit_code, 2) << flag << " " << value;
        EXPECT_NE(r.output.find("ridc: " + flag + " expects"),
                  std::string::npos)
            << flag << " " << value << ": " << r.output;
    }
    // Well-formed values, including the 0 that means "unlimited", scan.
    CliResult ok = runCli("--spec " + lock +
                          " --max-paths 100 --max-subcases 10 --threads 2"
                          " --deadline 0 --fn-deadline 30.5"
                          " --solver-fuel 0 --triage-fuel 0 --top 0 " +
                          src);
    EXPECT_EQ(ok.exit_code, 1) << ok.output;
    EXPECT_NE(ok.output.find("unbalanced at return"), std::string::npos);
}

TEST(RidcCli, ThreadsAboveTheCeilingAreAUsageError)
{
    // --threads is capped at 256 workers: a larger count is a usage
    // error (exit 2) that names the ceiling, and the ceiling itself
    // scans.
    std::string lock = writeTemp("cli_lock.spec",
                                 kernel::lockSpecText());
    std::string src = writeTemp("cli_lock.c", kLockLeakSource);
    for (const char *value : {"100000", "257"}) {
        CliResult r = runCli("--spec " + lock + " --threads " + value +
                             " " + src);
        EXPECT_EQ(r.exit_code, 2) << value << ": " << r.output;
        EXPECT_NE(r.output.find("ridc: --threads expects a positive "
                                "number up to 256"),
                  std::string::npos)
            << value << ": " << r.output;
    }
    CliResult ok = runCli("--spec " + lock + " --threads 256 " + src);
    EXPECT_EQ(ok.exit_code, 1) << ok.output;
    EXPECT_NE(ok.output.find("unbalanced at return"), std::string::npos);
}

TEST(RidcCli, KeepGoingSkipsAnUnreadableFile)
{
    // Under --keep-going a path that cannot be opened is one more
    // rejected file: it is named on stderr and listed with the file
    // errors, and the readable files are still scanned. Without
    // --keep-going it stays a usage error (exit 2).
    std::string lock = writeTemp("cli_unreadable.spec",
                                 kernel::lockSpecText());
    std::string src = writeTemp("cli_unreadable.c", kLockLeakSource);
    std::string missing = tempPath("cli_no_such_file.c");
    std::remove(missing.c_str());

    CliResult kept =
        runCli("--spec " + lock + " --keep-going " + missing + " " + src);
    EXPECT_EQ(kept.exit_code, 1) << kept.output;
    EXPECT_NE(kept.output.find("ridc: skipping " + missing +
                               ": cannot open " + missing + "\n"),
              std::string::npos)
        << kept.output;
    EXPECT_NE(kept.output.find("1 file(s) rejected"), std::string::npos)
        << kept.output;
    EXPECT_NE(kept.output.find("  " + missing + ": rejected (cannot open " +
                               missing + ")"),
              std::string::npos)
        << kept.output;
    EXPECT_NE(kept.output.find("unbalanced at return"), std::string::npos);

    CliResult strict = runCli("--spec " + lock + " " + missing + " " + src);
    EXPECT_EQ(strict.exit_code, 2) << strict.output;
    EXPECT_EQ(strict.output, "ridc: cannot open " + missing + "\n");
}

/** The DOT node line of @p fn in a --dot-callgraph rendering. */
std::string
dotNodeLine(const std::string &dot, const std::string &fn)
{
    size_t at = dot.find("[label=\"" + fn + "\"");
    if (at == std::string::npos)
        return "";
    size_t begin = dot.rfind('\n', at) + 1;
    return dot.substr(begin, dot.find('\n', at) - begin);
}

TEST(RidcCli, DotCallgraphColorsByTheDomainFilter)
{
    // The call graph is colored by the classification the scan would
    // run: with only `ref` enabled the lock API seeds nothing, so the
    // lock-taking caller is category 3.
    std::string lock = writeTemp("cli_lock.spec",
                                 kernel::lockSpecText());
    std::string src = writeTemp("cli_lock.c", kLockLeakSource);
    CliResult ref_only = runCli("--spec " + lock +
                                " --domains ref --dot-callgraph " + src);
    EXPECT_EQ(ref_only.exit_code, 0);
    EXPECT_NE(dotNodeLine(ref_only.output, "leaky").find("lightgray"),
              std::string::npos)
        << ref_only.output;

    CliResult all = runCli("--spec " + lock + " --dot-callgraph " + src);
    EXPECT_EQ(all.exit_code, 0);
    EXPECT_NE(dotNodeLine(all.output, "leaky").find("lightcoral"),
              std::string::npos)
        << all.output;
}

} // anonymous namespace
} // namespace rid
