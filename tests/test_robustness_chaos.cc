/**
 * @file
 * Robustness suite: chaos (fault-injection) runs, budget-driven graceful
 * degradation and multi-file fault isolation, end to end through the Rid
 * façade.
 *
 * The contract under test is the degradation ladder of DESIGN.md: no
 * injected fault or exhausted budget may crash the run or lose the
 * report; affected functions degrade to the conservative default summary
 * with a structured diagnostic, and *unaffected* functions produce
 * byte-identical results to a clean run.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/rid.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "obs/failpoint.h"
#include "summary/spec.h"

namespace rid {
namespace {

using analysis::FnStatus;
using analysis::FunctionDiagnostic;
using obs::FailpointRegistry;

/** Figure 9 of the paper: a wrapper plus a caller with a real bug. */
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

/** Serialized computed summary of every defined function of the run. */
std::map<std::string, std::string>
summariesByFunction(const Rid &tool)
{
    std::map<std::string, std::string> out;
    for (const auto &fn : tool.module().functions()) {
        if (fn->isDeclaration())
            continue;
        if (const summary::FunctionSummary *s =
                tool.summaries().find(fn->name()))
            out[fn->name()] = summary::serializeSummary(*s);
    }
    return out;
}

const FunctionDiagnostic *
diagnosticFor(const RunResult &result, const std::string &fn)
{
    for (const auto &d : result.diagnostics)
        if (d.function == fn)
            return &d;
    return nullptr;
}

class RobustnessChaosTest : public ::testing::Test
{
  protected:
    static kernel::Corpus corpus_;

    static void
    SetUpTestSuite()
    {
        corpus_ = kernel::generateCorpus(
            kernel::CorpusMix::paperCalibrated(0.001));
    }

    /** The registry is process-wide; never leak rules into other tests. */
    void TearDown() override { FailpointRegistry::instance().disarm(); }
};

kernel::Corpus RobustnessChaosTest::corpus_;

/**
 * Chaos sweep: probabilistic faults at every failpoint site at once,
 * over the examples corpus. The run must complete with a full report;
 * every fault is converted into a per-function (or per-file) diagnostic.
 */
TEST_F(RobustnessChaosTest, ChaosSweepCompletesWithFullReport)
{
    static const char *kSites[] = {
        "frontend.parse",       "ir.verify",
        "smt.intern",           "smt.query_cache.insert",
        "smt.solver.check",     "analysis.paths.enumerate",
        "analysis.symexec.path", "analysis.ipp.check",
    };

    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());

    // Arm after spec loading: the spec text is configuration, not an
    // analysis input, so faults there are not part of the contract.
    // Site probabilities are scaled to hit frequency (interning runs
    // orders of magnitude more often than path enumeration) so that a
    // useful fraction of functions survives to the later stages.
    FailpointRegistry::instance().configure(
        "frontend.parse=prob@0.05,"
        "ir.verify=prob@0.01,"
        "smt.intern=prob@0.0005,"
        "smt.query_cache.insert=prob@0.002,"
        "smt.solver.check=prob@0.003,"
        "analysis.paths.enumerate=prob@0.05,"
        "analysis.symexec.path=prob@0.02,"
        "analysis.ipp.check=prob@0.05",
        /*seed=*/20260805);

    tool.addSourceTolerant("figure9.c", kFigure9Source);
    for (const auto &file : corpus_.files)
        tool.addSourceTolerant(file.name, file.text);

    // Reaching the end of run() at all is the headline assertion: no
    // injected fault may escape as a crash or lost run.
    RunResult result = tool.run();

    EXPECT_GT(result.stats.functions_analyzed, 0u);
    EXPECT_FALSE(result.str().empty());
    std::string json = result.statsJson();
    EXPECT_NE(json.find("\"diagnostics\""), std::string::npos);

    // Every site was exercised, and at least one fault actually fired.
    auto &registry = FailpointRegistry::instance();
    for (const char *site : kSites)
        EXPECT_GT(registry.hitCount(site), 0u) << site;
    EXPECT_FALSE(registry.fired().empty());

    // Injected faults surface only as non-Ok diagnostics, never as Ok.
    for (const auto &d : result.diagnostics) {
        EXPECT_NE(d.status, FnStatus::Ok) << d.function;
        EXPECT_FALSE(d.reason.empty()) << d.function;
    }
}

/**
 * Targeted injection: a deterministic fault in one function degrades
 * exactly that function; every other function's computed summary is
 * byte-identical to a clean run's.
 */
TEST_F(RobustnessChaosTest, TargetedFaultDegradesOnlyTheVictim)
{
    // The victim is the top-level caller: no other function's summary
    // depends on it, so the rest of the run must be unperturbed.
    const std::string victim = "idmouse_open";

    auto makeRun = [&](const std::string &failpoints) {
        analysis::AnalyzerOptions opts;
        opts.failpoints = failpoints;
        auto tool = std::make_unique<Rid>(opts);
        tool->loadSpecText(kernel::dpmSpecText());
        tool->addSource(kFigure9Source);
        for (const auto &file : corpus_.files)
            tool->addSource(file.text);
        return tool;
    };

    auto clean = makeRun("");
    RunResult clean_result = clean->run();
    std::map<std::string, std::string> clean_summaries =
        summariesByFunction(*clean);
    FailpointRegistry::instance().disarm();

    auto chaos = makeRun("analysis.symexec.path@" + victim + "=always");
    RunResult chaos_result = chaos->run();
    std::map<std::string, std::string> chaos_summaries =
        summariesByFunction(*chaos);

    const FunctionDiagnostic *d = diagnosticFor(chaos_result, victim);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->status, FnStatus::Degraded);
    EXPECT_NE(d->reason.find("injected fault at analysis.symexec.path"),
              std::string::npos)
        << d->reason;

    // Same function set; every non-victim summary byte-identical.
    ASSERT_EQ(clean_summaries.size(), chaos_summaries.size());
    for (const auto &[fn, text] : clean_summaries) {
        ASSERT_TRUE(chaos_summaries.count(fn)) << fn;
        if (fn == victim)
            continue;
        EXPECT_EQ(chaos_summaries[fn], text) << fn;
        const FunctionDiagnostic *cd = diagnosticFor(chaos_result, fn);
        const FunctionDiagnostic *kd = diagnosticFor(clean_result, fn);
        EXPECT_EQ(cd != nullptr, kd != nullptr)
            << fn << " gained or lost a diagnostic";
        if (cd && kd) {
            EXPECT_EQ(cd->status, kd->status) << fn;
        }
    }

    // The victim's bug report (Figure 9) is the acceptable casualty.
    bool clean_has_victim_report = false;
    for (const auto &r : clean_result.reports)
        clean_has_victim_report |=
            r.str().find(victim) != std::string::npos;
    EXPECT_TRUE(clean_has_victim_report);
    for (const auto &r : chaos_result.reports)
        EXPECT_EQ(r.str().find(victim), std::string::npos) << r.str();
}

/** A path-explosion function whose full analysis takes far longer than
 *  the per-function deadline used by the timeout test below. */
std::string
pathologicalSource(int branches)
{
    std::string s = "int patho_explosion(struct device *dev) {\n";
    for (int i = 0; i < branches; i++) {
        s += "    if (dev_flag" + std::to_string(i) + "(dev)) {\n"
             "        pm_runtime_get_sync(dev);\n"
             "        pm_runtime_put(dev);\n"
             "    }\n";
    }
    s += "    return 0;\n}\n";
    for (int i = 0; i < branches; i++)
        s += "int dev_flag" + std::to_string(i) + "(struct device *d);\n";
    return s;
}

/**
 * Acceptance scenario from the issue: a pathological function under a
 * 50 ms per-function deadline is reported `timeout`, while every other
 * function in the same run produces results identical to an unbudgeted
 * run.
 */
TEST_F(RobustnessChaosTest, PerFunctionDeadlineIsolatesPathExplosion)
{
    const std::string patho = "patho_explosion";
    std::string patho_source = pathologicalSource(12);

    auto makeRun = [&](double fn_deadline) {
        analysis::AnalyzerOptions opts;
        // Lift the structural path cap so the pathological function's
        // cost is genuinely wall-clock-bound, not cap-bound.
        opts.max_paths = 1 << 20;
        opts.function_deadline_seconds = fn_deadline;
        auto tool = std::make_unique<Rid>(opts);
        tool->loadSpecText(kernel::dpmSpecText());
        tool->addSource(kFigure9Source);
        tool->addSource(patho_source);
        return tool;
    };

    auto unbudgeted = makeRun(0);
    RunResult unbudgeted_result = unbudgeted->run();
    EXPECT_EQ(diagnosticFor(unbudgeted_result, patho), nullptr);

    auto budgeted = makeRun(0.05);
    RunResult budgeted_result = budgeted->run();

    const FunctionDiagnostic *d = diagnosticFor(budgeted_result, patho);
    ASSERT_NE(d, nullptr) << "pathological function did not time out";
    EXPECT_EQ(d->status, FnStatus::Timeout);
    EXPECT_NE(d->reason.find("budget"), std::string::npos) << d->reason;

    // All other functions: summaries byte-identical to the unbudgeted
    // run, and the same reports (none mention the pathological leaf).
    std::map<std::string, std::string> unbudgeted_summaries =
        summariesByFunction(*unbudgeted);
    std::map<std::string, std::string> budgeted_summaries =
        summariesByFunction(*budgeted);
    for (const auto &[fn, text] : unbudgeted_summaries) {
        if (fn == patho)
            continue;
        ASSERT_TRUE(budgeted_summaries.count(fn)) << fn;
        EXPECT_EQ(budgeted_summaries[fn], text) << fn;
    }
    auto reportLines = [&](const RunResult &r) {
        std::multiset<std::string> lines;
        for (const auto &report : r.reports)
            if (report.str().find(patho) == std::string::npos)
                lines.insert(report.str());
        return lines;
    };
    EXPECT_EQ(reportLines(unbudgeted_result), reportLines(budgeted_result));
}

/**
 * A whole-run deadline that is already spent: every defined function is
 * degraded to the default summary with a Timeout diagnostic, and the run
 * still completes with a full report.
 */
TEST_F(RobustnessChaosTest, ExpiredRunDeadlineDegradesEverythingGracefully)
{
    analysis::AnalyzerOptions opts;
    opts.run_deadline_seconds = 1e-9;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(kFigure9Source);
    RunResult result = tool.run();

    for (const char *fn : {"usb_autopm_get_interface", "idmouse_open"}) {
        const FunctionDiagnostic *d = diagnosticFor(result, fn);
        ASSERT_NE(d, nullptr) << fn;
        EXPECT_EQ(d->status, FnStatus::Timeout) << fn;
        EXPECT_NE(d->reason.find("run budget"), std::string::npos)
            << d->reason;
    }
    EXPECT_GT(result.stats.functions_timeout, 0u);
    // Degraded, not absent: both functions still have (default) summaries.
    EXPECT_NE(tool.summaries().find("usb_autopm_get_interface"), nullptr);
    EXPECT_NE(tool.summaries().find("idmouse_open"), nullptr);
    EXPECT_NE(result.statsJson().find("\"timeout\""), std::string::npos);
}

/** Solver fuel exhaustion rides the same ladder as a deadline. */
TEST_F(RobustnessChaosTest, SolverFuelExhaustionDegradesToTimeout)
{
    analysis::AnalyzerOptions opts;
    opts.function_solver_fuel = 1;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(kFigure9Source);
    RunResult result = tool.run();

    const FunctionDiagnostic *d =
        diagnosticFor(result, "usb_autopm_get_interface");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->status, FnStatus::Timeout);
    EXPECT_NE(d->reason.find("fuel"), std::string::npos) << d->reason;
    EXPECT_GT(result.stats.solver.budget_stops, 0u);
}

/**
 * Satellite: a multi-file scan with one syntax-error file analyzes the
 * remaining files and reports exactly one file-level diagnostic.
 */
TEST_F(RobustnessChaosTest, SyntaxErrorFileIsIsolatedFromTheScan)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    EXPECT_TRUE(tool.addSourceTolerant("figure9.c", kFigure9Source));
    EXPECT_FALSE(tool.addSourceTolerant("broken.c",
                                        "int oops( { not kernel C %%"));
    EXPECT_TRUE(tool.addSourceTolerant(
        "other.c", "int other_fn(struct device *d) {\n"
                   "    return pm_runtime_get_sync(d);\n}\n"));

    RunResult result = tool.run();
    ASSERT_EQ(result.file_errors.size(), 1u);
    EXPECT_EQ(result.file_errors[0].file, "broken.c");
    EXPECT_FALSE(result.file_errors[0].reason.empty());

    // Both surviving files were analyzed: the Figure 9 bug is still
    // reported and other.c's function got a summary.
    bool figure9_bug = false;
    for (const auto &r : result.reports)
        figure9_bug |= r.str().find("idmouse_open") != std::string::npos;
    EXPECT_TRUE(figure9_bug);
    EXPECT_NE(tool.summaries().find("other_fn"), nullptr);
    EXPECT_NE(result.statsJson().find("broken.c"), std::string::npos);
}

/**
 * The exact FileDiagnostic text of every malformed input class the
 * frontend rejects: lexer, parser and lowering errors. Pinned byte for
 * byte so a frontend rewrite cannot silently change what an operator
 * reads.
 */
TEST_F(RobustnessChaosTest, MalformedInputDiagnosticsArePinned)
{
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"int oops( { not kernel C %%", "expected ) (got '{')"},
        {"/* never closed", "unterminated comment"},
        {"int f(void) { return \"abc; }", "unterminated string"},
        {"int f(void) { return 'a; }", "unterminated string"},
        {"int f(void) { return 1 @ 2; }", "stray character '@'"},
        {"int f(void) {\n  return 1 +;\n}", "expected expression (got ';')"},
        {"int f(int x) { return x y; }", "expected ; (got 'y')"},
        {"int f(void) { goto nowhere; }",
         "f: goto to undefined label 'nowhere'"},
        {"void f(void) { break; }", "f: break outside loop"},
        {"void f(void) { continue; }", "f: continue outside loop"},
        {"void f(int a) { switch (a) { } }",
         "switch statements are not supported by Kernel-C (got 'switch')"},
        {"int f(void) { return 99999999999999999999; }",
         "bad numeric literal '99999999999999999999'"},
        {"int f(void) { return 0xFFFFFFFFFFFFFFFFF; }",
         "bad numeric literal '0xFFFFFFFFFFFFFFFFF'"},
        {"int f(int x) {\n  if (x) { return 1; }\n",
         "unexpected end of input in block (got '<eof>')"},
        {"int f(struct s *x) { return x->; }",
         "expected field name (got ';')"},
        {"int (void);", "expected function name (got '(')"},
        {"int f(int x) { int ; }", "expected declarator name (got ';')"},
        {"int f(void) { goto ; }", "expected label after goto (got ';')"},
        {"int f(struct device *dev) { pm_runtime_get_sync(dev",
         "expected ) (got '<eof>')"},
        // Malformed numeric literals: the whole alphanumeric run is the
        // literal, so a bad digit is an error rather than a truncation.
        {"int f(int x) { return x == 10abc; }",
         "bad numeric literal '10abc'"},
        {"int f(void) { return 0x1G; }", "bad numeric literal '0x1G'"},
        {"int f(void) { return 0x; }", "bad numeric literal '0x'"},
    };
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    for (size_t i = 0; i < cases.size(); i++)
        EXPECT_FALSE(tool.addSourceTolerant("bad" + std::to_string(i) + ".c",
                                            cases[i].first))
            << cases[i].first;
    const auto &diags = tool.fileDiagnostics();
    ASSERT_EQ(diags.size(), cases.size());
    for (size_t i = 0; i < cases.size(); i++) {
        EXPECT_EQ(diags[i].file, "bad" + std::to_string(i) + ".c");
        EXPECT_EQ(diags[i].reason, cases[i].second) << cases[i].first;
    }
}

/**
 * A pathologically nested file (tens of thousands of parentheses, or of
 * nested `if`s) is rejected at the parser's nesting limit instead of
 * overflowing the stack, and the rest of a multi-file scan reports
 * exactly what it reports without that file.
 */
TEST_F(RobustnessChaosTest, DeeplyNestedFileIsIsolatedFromTheScan)
{
    auto repeat = [](const std::string &s, int n) {
        std::string out;
        for (int i = 0; i < n; i++)
            out += s;
        return out;
    };
    const std::string deep_parens = "int deep_expr(void) { return " +
                                    repeat("(", 30000) + "0" +
                                    repeat(")", 30000) + "; }\n";
    const std::string deep_ifs = "int deep_stmt(int x) { " +
                                 repeat("if (x) { ", 50000) + "x = 1; " +
                                 repeat("} ", 50000) + "return x; }\n";

    auto scan = [&](bool with_deep) {
        Rid tool;
        tool.loadSpecText(kernel::dpmSpecText());
        EXPECT_TRUE(tool.addSourceTolerant("figure9.c", kFigure9Source));
        if (with_deep) {
            EXPECT_FALSE(tool.addSourceTolerant("parens.c", deep_parens));
            EXPECT_FALSE(tool.addSourceTolerant("ifs.c", deep_ifs));
        }
        for (const auto &file : corpus_.files)
            EXPECT_TRUE(tool.addSourceTolerant(file.name, file.text));
        RunResult result = tool.run();
        std::vector<std::string> reports;
        for (const auto &r : result.reports)
            reports.push_back(r.str());
        return std::make_pair(reports, result.file_errors);
    };

    auto [clean_reports, clean_errors] = scan(false);
    auto [deep_reports, deep_errors] = scan(true);
    EXPECT_TRUE(clean_errors.empty());
    ASSERT_EQ(deep_errors.size(), 2u);
    EXPECT_EQ(deep_errors[0].file, "parens.c");
    EXPECT_EQ(deep_errors[1].file, "ifs.c");
    for (const auto &e : deep_errors)
        EXPECT_NE(e.reason.find("nesting deeper than"), std::string::npos)
            << e.reason;
    EXPECT_FALSE(clean_reports.empty());
    EXPECT_EQ(deep_reports, clean_reports);
}

/**
 * Domain-targeted injection: a deterministic fault at the balanced-policy
 * check, scoped to the lock domain, degrades exactly the function whose
 * lock bookkeeping was being checked — the refcount (ipp-policy) analysis
 * of the same run is untouched.
 */
TEST_F(RobustnessChaosTest, BalancedCheckFaultHitsOnlyTheTargetedDomain)
{
    const char *lock_source = R"(
int do_op(struct device *dev, int a);

int lock_leaky(struct device *dev, int arg) {
    int ret;
    spin_lock(&dev->lock);
    ret = do_op(dev, arg);
    if (ret < 0)
        return ret;
    spin_unlock(&dev->lock);
    return 0;
}
)";
    auto makeRun = [&](const std::string &failpoints) {
        analysis::AnalyzerOptions opts;
        opts.failpoints = failpoints;
        auto tool = std::make_unique<Rid>(opts);
        tool->loadSpecText(kernel::dpmSpecText());
        tool->loadSpecText(kernel::lockSpecText());
        tool->addSource(kFigure9Source);
        tool->addSource(lock_source);
        return tool;
    };

    auto clean = makeRun("");
    RunResult clean_result = clean->run();
    FailpointRegistry::instance().disarm();

    // The clean run flags both the refcount bug and the lock leak, and
    // the balanced-policy report carries the path-feasibility query that
    // decided it (the pre-pass evidence, same discipline as IPP reports).
    bool saw_ref = false, saw_lock = false;
    for (const auto &r : clean_result.reports) {
        if (r.function == "idmouse_open")
            saw_ref = true;
        if (r.function == "lock_leaky") {
            saw_lock = true;
            EXPECT_EQ(r.domain, "lock");
            EXPECT_EQ(r.kind, analysis::BugKind::Unbalanced);
            EXPECT_FALSE(r.queries.empty());
        }
    }
    EXPECT_TRUE(saw_ref);
    EXPECT_TRUE(saw_lock);

    // Fault the balanced check only inside the lock domain's scope.
    auto chaos = makeRun("analysis.ipp.balanced@lock=always");
    RunResult chaos_result = chaos->run();

    const FunctionDiagnostic *d = diagnosticFor(chaos_result, "lock_leaky");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->status, FnStatus::Degraded);
    EXPECT_NE(d->reason.find("injected fault at analysis.ipp.balanced"),
              std::string::npos)
        << d->reason;

    // The refcount analysis never enters the lock domain scope: the
    // Figure 9 report survives and no other function degraded.
    bool ref_survives = false;
    for (const auto &r : chaos_result.reports)
        ref_survives |= r.function == "idmouse_open";
    EXPECT_TRUE(ref_survives);
    for (const auto &diag : chaos_result.diagnostics)
        EXPECT_EQ(diag.function, "lock_leaky") << diag.function;
}

/**
 * Storage chaos: probabilistic append faults while a store records the
 * run must be absorbed (counted, never surfaced as analysis failures),
 * and a subsequent resume from the hole-riddled log re-analyzes exactly
 * the lost functions back to a byte-identical report set.
 */
TEST_F(RobustnessChaosTest, StoreAppendChaosIsAbsorbedAndResumable)
{
    const std::string dir =
        testing::TempDir() + "rid_chaos_store_append";
    std::filesystem::remove_all(dir);

    auto reportLines = [](const RunResult &result) {
        std::multiset<std::string> lines;
        for (const auto &r : result.reports)
            lines.insert(r.str());
        return lines;
    };

    // Storeless oracle.
    Rid plain;
    plain.loadSpecText(kernel::dpmSpecText());
    for (const auto &file : corpus_.files)
        plain.addSource(file.text);
    auto oracle = reportLines(plain.run());

    // Cold run with a store whose appends fail ~30% of the time.
    analysis::AnalyzerOptions opts;
    opts.store_path = dir;
    opts.failpoints = "store.append=prob@0.3";
    opts.failpoint_seed = 20260808;
    Rid chaotic(opts);
    chaotic.loadSpecText(kernel::dpmSpecText());
    for (const auto &file : corpus_.files)
        chaotic.addSource(file.text);
    RunResult chaotic_result = chaotic.run();
    FailpointRegistry::instance().disarm();

    EXPECT_EQ(reportLines(chaotic_result), oracle);
    ASSERT_TRUE(chaotic_result.stats.store.active);
    EXPECT_GT(chaotic_result.stats.store.failed_writes, 0u);
    EXPECT_EQ(chaotic_result.stats.functions_degraded, 0u);
    EXPECT_EQ(chaotic_result.stats.functions_error, 0u);

    // Resume with the faults gone: the surviving records replay, the
    // dropped ones re-analyze, and the report set is unchanged.
    analysis::AnalyzerOptions resume_opts;
    resume_opts.store_path = dir;
    resume_opts.resume = true;
    Rid resumed(resume_opts);
    resumed.loadSpecText(kernel::dpmSpecText());
    for (const auto &file : corpus_.files)
        resumed.addSource(file.text);
    RunResult resumed_result = resumed.run();

    EXPECT_EQ(reportLines(resumed_result), oracle);
    ASSERT_TRUE(resumed_result.stats.store.active);
    EXPECT_GT(resumed_result.stats.store.hits, 0u);
    EXPECT_GT(resumed_result.stats.store.misses, 0u);
}

/**
 * Triage chaos: a deterministic fault at the refutation site of one
 * report, or in the higher-precision lowering of its function, demotes
 * exactly that report to `unverified` — the victim's report survives
 * (demoted, never deleted) and every bystander's tier and rank are
 * byte-identical to the clean triaged run's, although all three
 * reported functions share one unit and the lowering victim is triaged
 * before the other two.
 */
TEST_F(RobustnessChaosTest, TriageFaultDegradesOnlyTheVictimReport)
{
    // The Section 6.4 FP pair plus a real bug: three reports, three
    // distinct clean tiers to compare against.
    const char *source = R"(
int fp_bitmask_fn(struct device *dev, int flags) {
    if (flags & 4) {
        pm_runtime_get_noresume(dev);
        mark_async_1(dev);
    }
    return 0;
}
void mark_async_1(struct device *dev);
int fp_listop_fn(struct device *dev, struct list *busy) {
    if (list_empty_1(busy)) {
        pm_runtime_get_noresume(dev);
        busy->head = dev;
        busy->len = busy->len + 1;
    }
    return 0;
}
int list_empty_1(struct list *l);
int tp_missing_put(struct intf *interface) {
    int result;
    result = autopm_get_1(interface);
    if (result)
        goto error;
    result = create_image_1(interface);
    if (result)
        goto error;
    autopm_put_1(interface);
error:
    return result;
}
int create_image_1(struct intf *i);
int autopm_get_1(struct intf *i) {
    int status;
    status = pm_runtime_get_sync(&i->dev);
    if (status < 0)
        pm_runtime_put_sync(&i->dev);
    if (status > 0)
        status = 0;
    return status;
}
void autopm_put_1(struct intf *i);
)";
    auto makeRun = [&](const std::string &failpoints) {
        analysis::AnalyzerOptions opts;
        opts.triage = true;
        opts.failpoints = failpoints;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.addSource(source);
        RunResult result = tool.run();
        FailpointRegistry::instance().disarm();
        return result;
    };

    RunResult clean = makeRun("");
    ASSERT_EQ(clean.reports.size(), 3u);
    EXPECT_EQ(clean.triage.faults, 0u);
    std::map<std::string, const analysis::BugReport *> clean_by_fn;
    for (const auto &r : clean.reports)
        clean_by_fn[r.function] = &r;

    auto expectOnlyVictimMoves = [&](const RunResult &chaos,
                                     const std::string &victim,
                                     analysis::Tier clean_tier) {
        ASSERT_EQ(chaos.reports.size(), 3u);
        for (const auto &r : chaos.reports) {
            ASSERT_TRUE(clean_by_fn.count(r.function)) << r.function;
            const analysis::BugReport *c = clean_by_fn[r.function];
            if (r.function == victim) {
                // The faulted run falls back to the unverified safety
                // floor.
                EXPECT_EQ(c->tier, clean_tier);
                EXPECT_EQ(r.tier, analysis::Tier::Unverified);
                continue;
            }
            // Bystanders byte-identical, rank included (the victim's
            // tier flip keeps the ranking order either way).
            EXPECT_EQ(r.str(), c->str()) << victim;
            EXPECT_EQ(r.rank, c->rank) << victim;
        }
    };

    // The clean run confirms the real bug; a refutation fault on it
    // demotes it.
    RunResult refute_fault =
        makeRun("analysis.triage.refute@tp_missing_put=always");
    EXPECT_EQ(refute_fault.triage.faults, 1u);
    expectOnlyVictimMoves(refute_fault, "tp_missing_put",
                          analysis::Tier::Confirmed);

    // The clean run refutes the bit-test FP; a parse fault while its
    // definition is re-lowered leaves it without a higher-precision
    // body. The base run keeps its IR (it calls a counter-changing API
    // directly), so only triage parses it again.
    RunResult lower_fault = makeRun("frontend.parse@fp_bitmask_fn=always");
    EXPECT_EQ(lower_fault.triage.faults, 0u);
    EXPECT_EQ(lower_fault.triage.hp_functions_incomplete, 1u);
    expectOnlyVictimMoves(lower_fault, "fp_bitmask_fn",
                          analysis::Tier::Refuted);
}

} // anonymous namespace
} // namespace rid
