/**
 * @file
 * Tests for report rendering (core/report_format.h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/report_format.h"
#include "frontend/lower.h"
#include "kernel/dpm_specs.h"
#include "obs/json_reader.h"
#include "store/store.h"
#include "summary/spec.h"
#include "triage/triage.h"

namespace rid {
namespace {

/** Two functions that each leak the PM count on one error path. */
const char *kSampleSource = R"(
int leak_one(struct device *dev) {
    int r = pm_runtime_get_sync(dev);
    if (r < 0)
        return r;
    r = op_one(dev);
    pm_runtime_put(dev);
    return r;
}
int leak_two(struct device *dev) {
    int r = pm_runtime_get_sync(dev);
    if (r < 0)
        return r;
    r = op_two(dev);
    pm_runtime_put(dev);
    return r;
}
int op_one(struct device *dev);
int op_two(struct device *dev);
)";

RunResult
sampleRun()
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(kSampleSource);
    return tool.run();
}

TEST(Json, ReportFieldsPresent)
{
    RunResult result = sampleRun();
    ASSERT_EQ(result.reports.size(), 2u);
    std::string json = toJson(result.reports[0]);
    for (const char *key :
         {"\"function\"", "\"refcount\"", "\"delta_a\"", "\"delta_b\"",
          "\"cons_a\"", "\"cons_b\"", "\"lines_a\"",
          "\"return_line_a\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << json;
    }
    EXPECT_NE(json.find("[dev].pm"), std::string::npos);
}

TEST(Json, RunDocumentStructure)
{
    std::string json = toJson(sampleRun());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"reports\":["), std::string::npos);
    EXPECT_NE(json.find("\"stats\":{"), std::string::npos);
    EXPECT_NE(json.find("\"paths_enumerated\":"), std::string::npos);
    // Two reports, comma-separated.
    EXPECT_NE(json.find("},{"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); i++) {
        char c = json[i];
        if (in_string) {
            if (c == '\\')
                i++;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        if (c == '{' || c == '[')
            depth++;
        if (c == '}' || c == ']')
            depth--;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Json, EmptyRunHasEmptyArray)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource("int ok(int a) { return a; }");
    std::string json = toJson(tool.run());
    EXPECT_NE(json.find("\"reports\":[]"), std::string::npos);
}

TEST(GroupedText, GroupsByFunction)
{
    std::string text = groupedText(sampleRun());
    EXPECT_NE(text.find("2 report(s) in 2 function(s)"),
              std::string::npos);
    EXPECT_NE(text.find("leak_one (1):"), std::string::npos);
    EXPECT_NE(text.find("leak_two (1):"), std::string::npos);
    EXPECT_NE(text.find("refcount [dev].pm"), std::string::npos);
}

TEST(GroupedText, OrdersByCountThenName)
{
    std::string text = groupedText(sampleRun());
    // Equal counts: alphabetical order.
    EXPECT_LT(text.find("leak_one"), text.find("leak_two"));
}

// ------------------------------------------------ run statistics schema

/** A category-1 function with eight feasible paths: truncated under a
 *  path cap of 4. */
const char *kEightPathSource = R"(
int eight_paths(struct device *dev, int a, int b, int c) {
    int r = pm_runtime_get_sync(dev);
    if (a > 0)
        r = 1;
    if (b > 0)
        r = 2;
    if (c > 0)
        r = 3;
    pm_runtime_put(dev);
    return r;
}
)";

/** A run that fills every optional part of both JSON documents: a store,
 *  triage, a truncated function and a rejected file. */
RunResult
storeAndTriageRun(const std::string &store_dir)
{
    std::filesystem::remove_all(store_dir);
    analysis::AnalyzerOptions opts;
    opts.store_path = store_dir;
    opts.triage = true;
    opts.max_paths = 4;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(kSampleSource);
    tool.addSource(kEightPathSource);
    tool.rejectFile("missing.c", "cannot read");
    RunResult result = tool.run();
    std::filesystem::remove_all(store_dir);
    return result;
}

void
collectKeyPaths(const obs::JsonValue &v, const std::string &path,
                std::vector<std::string> &out)
{
    if (v.isArray()) {
        for (const auto &e : v.array)
            collectKeyPaths(e, path + "[]", out);
        return;
    }
    for (const auto &[key, member] : v.members) {
        std::string p = path.empty() ? key : path + "." + key;
        if (std::find(out.begin(), out.end(), p) == out.end())
            out.push_back(p);
        collectKeyPaths(member, p, out);
    }
}

/** Every key path of @p json in document order, each once: object
 *  members as `a.b`, array elements as `a[]`. */
std::vector<std::string>
keyPaths(const std::string &json)
{
    std::vector<std::string> out;
    collectKeyPaths(obs::parseJson(json), "", out);
    return out;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const auto &l : lines)
        out += l + "\n";
    return out;
}

TEST(RunStats, StatsJsonKeyPathsArePinned)
{
    RunResult result =
        storeAndTriageRun(testing::TempDir() + "rid_stats_schema");
    ASSERT_EQ(result.file_errors.size(), 1u);
    ASSERT_FALSE(result.diagnostics.empty());
    // The key paths recorded before AnalyzerStats became a view.
    EXPECT_EQ(joinLines(keyPaths(result.statsJson())), R"(reports
functions
functions.refcount_changing
functions.affecting
functions.other
functions.analyzed
functions.defaulted
functions.truncated
functions.lowered
paths_enumerated
entries_computed
blocks_executed
state_forks
subtrees_pruned
entries_instantiated
summary_entries_compacted
phases
phases.classify_seconds
phases.analyze_seconds
phases.symexec_seconds
phases.ipp_seconds
solver
solver.queries
solver.theory_checks
solver.branches
solver.unknowns
solver.cache_hits
solver.cache_misses
solver.solve_seconds
query_cache
query_cache.hits
query_cache.misses
query_cache.insertions
query_cache.evictions
query_cache.collisions
query_cache.entries
query_cache.hit_rate
query_cache.cross_pass_hits
query_cache.cross_pass_hit_rate
inst_cache
inst_cache.hits
inst_cache.misses
inst_cache.insertions
inst_cache.evictions
inst_cache.collisions
inst_cache.entries
inst_cache.hit_rate
profile
profile.functions_ranked
profile.total_seconds
profile.solver_seconds
profile.paths_total
profile.top
profile.top[].function
profile.top[].total_seconds
profile.top[].symexec_seconds
profile.top[].ipp_seconds
profile.top[].solver_seconds
profile.top[].solver_queries
profile.top[].paths
profile.top[].entries
profile.top[].blocks_executed
profile.top[].forks
profile.top[].subtrees_pruned
profile.top[].entries_instantiated
profile.top[].truncated
domains
domains.ref
domains.ref.reports
diagnostics
diagnostics.counts
diagnostics.counts.ok
diagnostics.counts.truncated
diagnostics.counts.timeout
diagnostics.counts.degraded
diagnostics.counts.error
diagnostics.counts.not_ok
diagnostics.functions
diagnostics.functions[].function
diagnostics.functions[].status
diagnostics.functions[].reason
diagnostics.files
diagnostics.files[].file
diagnostics.files[].reason
triage
triage.reports_triaged
triage.confirmed
triage.unverified
triage.low_confidence
triage.refuted
triage.hp_functions_executed
triage.hp_functions_incomplete
triage.hp_units_lowered
triage.extension_searches
triage.downstream_releases_found
triage.faults
triage.budget_stops
triage.solver
triage.solver.queries
triage.solver.cache_hits
triage.solver.cache_misses
triage.solver.budget_stops
triage.seconds
store
store.hits
store.misses
store.retried
store.quarantined
store.torn_frames
store.loaded_records
store.failed_writes
store.bytes_appended
store.hit_rate
)");
}

TEST(RunStats, RunJsonKeyPathsArePinned)
{
    RunResult result =
        storeAndTriageRun(testing::TempDir() + "rid_run_schema");
    EXPECT_EQ(joinLines(keyPaths(toJson(result))), R"(reports
reports[].function
reports[].refcount
reports[].delta_a
reports[].delta_b
reports[].cons_a
reports[].cons_b
reports[].lines_a
reports[].lines_b
reports[].return_line_a
reports[].return_line_b
reports[].fingerprint
reports[].tier
reports[].rank
stats
stats.refcount_changing
stats.affecting
stats.other
stats.functions_analyzed
stats.functions_defaulted
stats.functions_truncated
stats.paths_enumerated
stats.entries_computed
stats.classify_seconds
stats.analyze_seconds
diagnostics
diagnostics[].function
diagnostics[].status
diagnostics[].reason
file_errors
file_errors[].file
file_errors[].reason
)");
}

/** The unlabelled samples of a Prometheus exposition, by name. */
std::map<std::string, double>
prometheusSamples(const std::string &text)
{
    std::map<std::string, double> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#' ||
            line.find('{') != std::string::npos)
            continue;
        size_t space = line.find(' ');
        out[line.substr(0, space)] =
            std::strtod(line.c_str() + space, nullptr);
    }
    return out;
}

TEST(RunStats, EveryNumberHasOneSource)
{
    // A cold store run, then a resumed one with triage on its query
    // cache: the view the Analyzer hands out must agree with the
    // Prometheus exposition of the same registry, and must already count
    // triage's queries.
    const std::string dir = testing::TempDir() + "rid_stats_source";
    std::filesystem::remove_all(dir);
    auto analyze = [&](const ir::Module &mod, summary::SummaryDb &db,
                       bool resume) {
        summary::loadSpecsInto(kernel::dpmSpecText(), db);
        analysis::AnalyzerOptions opts;
        opts.max_paths = 4;
        store::AnalysisStore::Options sopts;
        sopts.path = dir;
        sopts.resume = resume;
        sopts.config_fp = store::configFingerprint(db, opts);
        opts.store = std::make_shared<store::AnalysisStore>(sopts);
        opts.resume = resume;
        auto analyzer = std::make_unique<analysis::Analyzer>(mod, db, opts);
        analyzer->run();
        return analyzer;
    };
    // The cold run sees only the sample, so the resumed run replays its
    // two functions and analyzes the truncated one.
    ir::Module cold_mod, mod;
    cold_mod.absorb(frontend::compile(kSampleSource));
    std::vector<std::pair<std::string, std::string>> sources;
    for (const char *unit : {kSampleSource, kEightPathSource}) {
        mod.absorb(frontend::compile(unit));
        sources.emplace_back("", unit);
    }
    summary::SummaryDb cold_db, db;
    analyze(cold_mod, cold_db, false);
    std::unique_ptr<analysis::Analyzer> analyzer = analyze(mod, db, true);

    const analysis::AnalyzerStats before = analyzer->stats();
    std::vector<analysis::BugReport> reports = analyzer->reports();
    triage::TriagePass pass(mod, db, sources, analyzer->queryCache());
    pass.run(reports);
    const analysis::AnalyzerStats s = analyzer->stats();
    std::filesystem::remove_all(dir);

    // Non-vacuity: the run replayed, analyzed, truncated, reported and
    // triaged.
    ASSERT_GT(s.store.hits, 0u);
    ASSERT_GT(s.store.misses, 0u);
    ASSERT_GT(s.functions_truncated, 0u);
    ASSERT_EQ(s.reports_by_domain.size(), 1u);
    const smt::Solver::Stats &triage_solver = pass.stats().solver;
    ASSERT_GT(triage_solver.cache_hits + triage_solver.cache_misses, 0u);

    // The query cache counts triage's lookups as they happen.
    EXPECT_EQ(s.query_cache.hits,
              before.query_cache.hits + triage_solver.cache_hits);
    EXPECT_EQ(s.query_cache.misses,
              before.query_cache.misses + triage_solver.cache_misses);

    std::map<std::string, double> prom =
        prometheusSamples(analyzer->metrics()->prometheusText());
    auto d = [](auto v) { return static_cast<double>(v); };
    const std::map<std::string, double> expected = {
        {"rid_functions_analyzed_total", d(s.functions_analyzed)},
        {"rid_functions_defaulted_total", d(s.functions_defaulted)},
        {"rid_ir_functions_lowered_total", d(s.functions_lowered)},
        {"rid_paths_enumerated_total", d(s.paths_enumerated)},
        {"rid_entries_computed_total", d(s.entries_computed)},
        {"rid_blocks_executed_total", d(s.blocks_executed)},
        {"rid_state_forks_total", d(s.state_forks)},
        {"rid_subtrees_pruned_total", d(s.subtrees_pruned)},
        {"rid_functions_truncated_total", d(s.functions_truncated)},
        {"rid_functions_timeout_total", d(s.functions_timeout)},
        {"rid_functions_degraded_total", d(s.functions_degraded)},
        {"rid_functions_error_total", d(s.functions_error)},
        {"rid_classify_seconds", d(s.classify_seconds)},
        {"rid_analyze_seconds", d(s.analyze_seconds)},
        {"rid_symexec_seconds_sum", d(s.symexec_seconds)},
        {"rid_ipp_seconds_sum", d(s.ipp_seconds)},
        {"rid_entries_instantiated_total", d(s.entries_instantiated)},
        {"rid_summary_entries_compacted_total",
         d(s.summary_entries_compacted)},
        {"rid_solver_queries_total", d(s.solver.queries)},
        {"rid_solver_theory_checks_total", d(s.solver.theory_checks)},
        {"rid_solver_branches_total", d(s.solver.branches)},
        {"rid_solver_unknowns_total", d(s.solver.unknowns)},
        {"rid_solver_cache_hits_total", d(s.solver.cache_hits)},
        {"rid_solver_cache_misses_total", d(s.solver.cache_misses)},
        {"rid_solver_solve_ns_total", d(s.solver.solve_ns)},
        {"rid_solver_budget_stops_total", d(s.solver.budget_stops)},
        {"rid_query_cache_hits", d(s.query_cache.hits)},
        {"rid_query_cache_misses", d(s.query_cache.misses)},
        {"rid_query_cache_entries", d(s.query_cache.entries)},
        {"rid_query_cache_evictions", d(s.query_cache.evictions)},
        {"rid_inst_cache_hits", d(s.inst_cache.hits)},
        {"rid_inst_cache_misses", d(s.inst_cache.misses)},
        {"rid_inst_cache_entries", d(s.inst_cache.entries)},
        {"rid_inst_cache_evictions", d(s.inst_cache.evictions)},
        {"rid_reports_ref_total", d(s.reports_by_domain.at("ref"))},
        {"rid_store_hits_total", d(s.store.hits)},
        {"rid_store_misses_total", d(s.store.misses)},
        {"rid_store_retries_total", d(s.store.retried)},
        {"rid_store_quarantined_total", d(s.store.quarantined)},
        {"rid_store_torn_frames_total", d(s.store.torn_frames)},
    };
    for (const auto &[name, value] : expected) {
        ASSERT_TRUE(prom.count(name)) << name;
        EXPECT_DOUBLE_EQ(prom.at(name), value) << name;
    }

    // Two reads agree.
    const analysis::AnalyzerStats again = analyzer->stats();
    RunResult a, b;
    a.stats = s;
    b.stats = again;
    EXPECT_EQ(a.statsJson(), b.statsJson());

    // An Analyzer runs once.
    EXPECT_THROW(analyzer->run(), std::logic_error);
}

} // anonymous namespace
} // namespace rid
