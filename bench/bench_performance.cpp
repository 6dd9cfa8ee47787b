/**
 * @file
 * Performance microbenchmarks (Section 6.5) using google-benchmark.
 *
 * The paper's absolute numbers (64 min classification + 67 min analysis
 * for 270k functions on an 8-core box) are testbed-specific; the shape
 * claims exercised here are:
 *   - classification scales roughly linearly in corpus size;
 *   - per-function analysis cost is dominated by path enumeration and
 *     constraint solving and is bounded by the path/subcase caps;
 *   - SCC-level parallel analysis (Section 5.3) distributes the work off
 *     the main thread with bit-identical results (wall-clock gains
 *     require a multi-core host).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include "analysis/analyzer.h"
#include "analysis/paths.h"
#include "analysis/symexec.h"
#include "core/rid.h"
#include "frontend/lower.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "smt/solver.h"
#include "summary/spec.h"

namespace {

/** A diamond cascade with 2^n paths for path-enumeration scaling. */
rid::ir::Module
diamondFunction(int diamonds)
{
    std::string src = "int f(struct device *dev, int a) {\n"
                      "    int acc = 0;\n";
    for (int i = 0; i < diamonds; i++) {
        src += "    if (a > " + std::to_string(i) + ")\n";
        src += "        acc = " + std::to_string(i) + ";\n";
    }
    src += "    return acc;\n}\n";
    return rid::frontend::compile(src);
}

void
BM_PathEnumeration(benchmark::State &state)
{
    auto module = diamondFunction(static_cast<int>(state.range(0)));
    const auto *fn = module.find("f");
    for (auto _ : state) {
        auto paths = rid::analysis::enumeratePaths(*fn, 1 << 20);
        benchmark::DoNotOptimize(paths.paths.size());
    }
    state.counters["paths"] = static_cast<double>(
        rid::analysis::enumeratePaths(*fn, 1 << 20).paths.size());
}
BENCHMARK(BM_PathEnumeration)->Arg(4)->Arg(8)->Arg(12);

void
BM_SolverConjunction(benchmark::State &state)
{
    using namespace rid::smt;
    // Chain of difference constraints x0 < x1 < ... < xn, then close the
    // cycle to force full Fourier-Motzkin work.
    int n = static_cast<int>(state.range(0));
    std::vector<Formula> parts;
    for (int i = 0; i < n; i++) {
        parts.push_back(Formula::lit(
            Expr::cmp(Pred::Lt, Expr::arg("x" + std::to_string(i)),
                      Expr::arg("x" + std::to_string(i + 1)))));
    }
    parts.push_back(Formula::lit(Expr::cmp(
        Pred::Lt, Expr::arg("x" + std::to_string(n)), Expr::arg("x0"))));
    Formula f = Formula::conj(parts);
    for (auto _ : state) {
        Solver solver;
        benchmark::DoNotOptimize(solver.check(f));
    }
}
BENCHMARK(BM_SolverConjunction)->Arg(4)->Arg(16)->Arg(64);

void
BM_SolverDisjunctionBranches(benchmark::State &state)
{
    using namespace rid::smt;
    // (a=1 | a=2 | ... | a=k) & (b=1 | ... | b=k) & a > b: branch
    // enumeration with theory pruning.
    int k = static_cast<int>(state.range(0));
    auto clause = [&](const char *v) {
        std::vector<Formula> alts;
        for (int i = 1; i <= k; i++) {
            alts.push_back(Formula::lit(
                Expr::cmp(Pred::Eq, Expr::arg(v), Expr::intConst(i))));
        }
        return Formula::disj(alts);
    };
    Formula f = Formula::conj(
        {clause("a"), clause("b"),
         Formula::lit(Expr::cmp(Pred::Gt, Expr::arg("a"),
                                Expr::arg("b")))});
    for (auto _ : state) {
        Solver solver;
        benchmark::DoNotOptimize(solver.check(f));
    }
}
BENCHMARK(BM_SolverDisjunctionBranches)->Arg(2)->Arg(8)->Arg(16);

void
BM_AnalyzeFunction(benchmark::State &state)
{
    // Full single-function pipeline on the Figure 9 wrapper + caller.
    const char *src = R"(
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
    for (auto _ : state) {
        rid::Rid tool;
        tool.loadSpecText(rid::kernel::dpmSpecText());
        tool.addSource(src);
        auto result = tool.run();
        benchmark::DoNotOptimize(result.reports.size());
    }
}
BENCHMARK(BM_AnalyzeFunction);

void
BM_ClassifyCorpus(benchmark::State &state)
{
    double scale = state.range(0) / 1000.0;
    auto mix = rid::kernel::CorpusMix::paperCalibrated(scale);
    auto corpus = rid::kernel::generateCorpus(mix);
    // Pre-parse outside the timed loop: classification cost only.
    rid::ir::Module module;
    for (const auto &file : corpus.files)
        module.absorb(rid::frontend::compile(file.text));
    rid::summary::SummaryDb db;
    rid::summary::loadSpecsInto(rid::kernel::dpmSpecText(), db);
    std::vector<std::string> seeds = db.predefinedNames();
    for (auto _ : state) {
        rid::analysis::FunctionClassifier classifier(module, seeds);
        benchmark::DoNotOptimize(classifier.stats().other);
    }
    state.counters["functions"] = static_cast<double>(module.size());
}
BENCHMARK(BM_ClassifyCorpus)->Arg(2)->Arg(10)->Arg(40)
    ->Unit(benchmark::kMillisecond);

void
BM_AnalyzeCorpusQueryCache(benchmark::State &state)
{
    // The repeated-overlap workload: the IPP phase restarts its pairwise
    // scan after every merge/drop and symbolic execution re-checks
    // growing path prefixes, so the same formulas are solved over and
    // over; the shared query cache answers the repeats.
    auto mix = rid::kernel::CorpusMix::paperCalibrated(0.01);
    auto corpus = rid::kernel::generateCorpus(mix);
    rid::ir::Module module;
    for (const auto &file : corpus.files)
        module.absorb(rid::frontend::compile(file.text));
    uint64_t theory_checks = 0;
    uint64_t hits = 0;
    for (auto _ : state) {
        rid::summary::SummaryDb db;
        rid::summary::loadSpecsInto(rid::kernel::dpmSpecText(), db);
        rid::analysis::Analyzer analyzer(module, db);
        analyzer.run();
        theory_checks = analyzer.stats().solver.theory_checks;
        hits = analyzer.stats().query_cache.hits;
        benchmark::DoNotOptimize(analyzer.reports().size());
    }
    state.counters["theory_checks"] = static_cast<double>(theory_checks);
    state.counters["cache_hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_AnalyzeCorpusQueryCache)->Unit(benchmark::kMillisecond);

/** Wrapper-heavy corpus: the callee-summary hot path. Boosted wrapper
 *  trios and get/put drivers make `summary::instantiate` the dominant
 *  symexec cost — every state reaching a call re-instantiates the
 *  callee's entries, and the spec summaries (pm_runtime_get_sync & co.)
 *  repeat with identical actual shapes across the whole corpus. */
rid::kernel::CorpusMix
wrapperHeavyMix()
{
    using rid::kernel::PatternKind;
    rid::kernel::CorpusMix mix;
    mix.counts[PatternKind::WrapperGet] = 12;
    mix.counts[PatternKind::WrapperPut] = 12;
    mix.counts[PatternKind::BuggyWrapperCaller] = 12;
    mix.counts[PatternKind::CorrectGetPut] = 30;
    mix.counts[PatternKind::CorrectNoErrorCheck] = 15;
    mix.counts[PatternKind::BuggyMissingPutOnError] = 10;
    mix.counts[PatternKind::Cat2Helper] = 10;
    return mix;
}

void
BM_AnalyzeCorpusInterning(benchmark::State &state)
{
    // The callee-instantiation workload: the shared instantiation cache
    // (summary/inst_cache.h) answers repeated callee-entry
    // instantiations; "entries_instantiated" counts the ones built from
    // scratch.
    auto corpus = rid::kernel::generateCorpus(wrapperHeavyMix());
    rid::ir::Module module;
    for (const auto &file : corpus.files)
        module.absorb(rid::frontend::compile(file.text));
    uint64_t instantiated = 0;
    uint64_t hits = 0;
    for (auto _ : state) {
        rid::summary::SummaryDb db;
        rid::summary::loadSpecsInto(rid::kernel::dpmSpecText(), db);
        rid::analysis::Analyzer analyzer(module, db);
        analyzer.run();
        instantiated = analyzer.stats().entries_instantiated;
        hits = analyzer.stats().inst_cache.hits;
        benchmark::DoNotOptimize(analyzer.reports().size());
    }
    state.counters["entries_instantiated"] =
        static_cast<double>(instantiated);
    state.counters["inst_cache_hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_AnalyzeCorpusInterning)->Unit(benchmark::kMillisecond);

void
BM_AnalyzeCorpusThreads(benchmark::State &state)
{
    // Parse once outside the loop: the timed region is the bottom-up
    // analysis itself, which is what SCC-level parallelism accelerates.
    auto mix = rid::kernel::CorpusMix::paperCalibrated(0.01);
    auto corpus = rid::kernel::generateCorpus(mix);
    rid::ir::Module module;
    for (const auto &file : corpus.files)
        module.absorb(rid::frontend::compile(file.text));
    for (auto _ : state) {
        rid::summary::SummaryDb db;
        rid::summary::loadSpecsInto(rid::kernel::dpmSpecText(), db);
        rid::analysis::AnalyzerOptions opts;
        opts.threads = static_cast<int>(state.range(0));
        rid::analysis::Analyzer analyzer(module, db, opts);
        analyzer.run();
        benchmark::DoNotOptimize(analyzer.reports().size());
    }
}
BENCHMARK(BM_AnalyzeCorpusThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/** Load the DPM spec and @p corpus into a Rid built with @p opts, and
 *  run it; returns the result and the run's wall seconds. */
std::pair<rid::RunResult, double>
timedRun(const rid::kernel::Corpus &corpus,
         rid::analysis::AnalyzerOptions opts = {})
{
    rid::Rid tool(std::move(opts));
    tool.loadSpecText(rid::kernel::dpmSpecText());
    for (const auto &file : corpus.files)
        tool.addSource(file.text);
    auto t0 = std::chrono::steady_clock::now();
    rid::RunResult result = tool.run();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return {std::move(result), wall};
}

void
BM_AnalyzeCorpusResume(benchmark::State &state)
{
    // Warm-resume workload: a cold run seeds the durable store outside
    // the timed loop; each iteration resumes from it on the unchanged
    // corpus, so the analysis replays from the log instead of
    // re-executing symbolically.
    auto mix = rid::kernel::CorpusMix::paperCalibrated(0.01);
    auto corpus = rid::kernel::generateCorpus(mix);
    std::string dir = "bench_resume_store.tmp";
    std::filesystem::remove_all(dir);
    auto runOnce = [&](bool resume) {
        rid::analysis::AnalyzerOptions opts;
        opts.store_path = dir;
        opts.resume = resume;
        return timedRun(corpus, opts).first;
    };
    rid::RunResult cold = runOnce(false);
    double hit_rate = 0;
    double warm_symexec = 0;
    for (auto _ : state) {
        rid::RunResult warm = runOnce(true);
        hit_rate = warm.stats.store.hitRate();
        warm_symexec = warm.stats.symexec_seconds;
        benchmark::DoNotOptimize(warm.reports.size());
    }
    state.counters["resume_hit_rate"] = hit_rate;
    state.counters["symexec_seconds_cold"] = cold.stats.symexec_seconds;
    state.counters["symexec_seconds_warm"] = warm_symexec;
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_AnalyzeCorpusResume)->Unit(benchmark::kMillisecond);

/**
 * Machine-readable trajectory record: run the repeated-overlap corpus
 * workload and write solver/cache counters and per-phase wall times to
 * BENCH_performance.json. The schema is documented in DESIGN.md
 * ("Solver query cache"); "cache_on" is RunResult::statsJson(). A
 * further pair of runs measures the provenance journal cost (journal off
 * vs on; see docs/PROVENANCE.md) — "provenance_overhead" is the relative
 * symexec slowdown journal-on — and the durable-store resume
 * differential ("resume_hit_rate", cold/warm "symexec_seconds_resume_*";
 * see docs/STORE.md). The wrapper-heavy mix measures instantiation
 * interning ("entries_instantiated_off"/"_on", "summary_entries_compacted";
 * see DESIGN.md "Summary compaction and instantiation interning"), and a
 * triaged run the cross-pass query-cache sharing.
 */
void
writeBenchJson(const char *path)
{
    auto mix = rid::kernel::CorpusMix::paperCalibrated(0.01);
    auto corpus = rid::kernel::generateCorpus(mix);

    auto [on, on_wall] = timedRun(corpus);
    uint64_t checks_on = on.stats.solver.theory_checks;

    // Provenance journal overhead: the journal is rendered and written
    // after analysis, so the symbolic-execution phase should be all but
    // untouched (acceptance bound: <10% symexec overhead journal-on).
    std::string journal_path = std::string(path) + ".provenance.journal";
    rid::analysis::AnalyzerOptions journal_opts;
    journal_opts.provenance_path = journal_path;
    auto [joff, joff_wall] = timedRun(corpus);
    auto [jon, jon_wall] = timedRun(corpus, journal_opts);
    double journal_overhead =
        joff.stats.symexec_seconds > 0
            ? jon.stats.symexec_seconds / joff.stats.symexec_seconds - 1.0
            : 0.0;
    std::remove(journal_path.c_str());

    // Kill-and-resume differential: a cold run records the durable
    // analysis store, a warm resume on the unchanged corpus replays
    // from it — acceptance bounds: hit rate > 0.9 and near-zero warm
    // symbolic-execution time (docs/STORE.md).
    std::string store_dir = std::string(path) + ".store";
    std::filesystem::remove_all(store_dir);
    rid::analysis::AnalyzerOptions store_opts;
    store_opts.store_path = store_dir;
    auto [store_cold, store_cold_wall] = timedRun(corpus, store_opts);
    store_opts.resume = true;
    auto [store_warm, store_warm_wall] = timedRun(corpus, store_opts);
    std::filesystem::remove_all(store_dir);

    // Instantiation interning on the wrapper-heavy mix (the
    // callee-summary hot path). Every lookup of the shared cache is one
    // instantiation an uncached walk would build from scratch, so
    // hits + misses is the uncached count and misses the cached one.
    // Compaction stays at its default (on), so
    // "summary_entries_compacted" records how much the bottom-up pass
    // shrinks what callers instantiate. Acceptance bound:
    // instantiation_reduction >= 0.5 (scripts/check.sh gates it).
    auto [inst_on, inst_on_wall] =
        timedRun(rid::kernel::generateCorpus(wrapperHeavyMix()));
    const auto &ic = inst_on.stats.inst_cache;
    uint64_t ei_off = ic.hits + ic.misses;
    uint64_t ei_on = inst_on.stats.entries_instantiated;
    double inst_reduction =
        ei_off ? 1.0 - static_cast<double>(ei_on) / ei_off : 0.0;

    // Triage differential: the same scaled corpus with the automated
    // triage pass on (shared query cache). "cross_pass_cache_hit_rate"
    // is the fraction of cache hits answered across passes — triage
    // queries re-hitting main-analysis verdicts (docs/TRIAGE.md).
    rid::analysis::AnalyzerOptions triage_opts;
    triage_opts.triage = true;
    auto [triage_run, triage_wall] = timedRun(corpus, triage_opts);

    std::ofstream out(path);
    out << "{\n";
    out << "  \"workload\": \"synthetic DPM corpus (scale 0.01), "
           "repeated-overlap IPP + feasibility pruning\",\n";
    out << "  \"cache_on\": " << on.statsJson() << ",\n";
    out << "  \"wall_seconds_on\": " << on_wall << ",\n";
    out << "  \"theory_checks_on\": " << checks_on << ",\n";
    out << "  \"cache_hit_rate\": " << on.stats.query_cache.hitRate()
        << ",\n";
    out << "  \"wall_seconds_journal_off\": " << joff_wall << ",\n";
    out << "  \"wall_seconds_journal_on\": " << jon_wall << ",\n";
    out << "  \"symexec_seconds_journal_off\": "
        << joff.stats.symexec_seconds << ",\n";
    out << "  \"symexec_seconds_journal_on\": "
        << jon.stats.symexec_seconds << ",\n";
    out << "  \"provenance_overhead\": " << journal_overhead << ",\n";
    out << "  \"wall_seconds_resume_cold\": " << store_cold_wall << ",\n";
    out << "  \"wall_seconds_resume_warm\": " << store_warm_wall << ",\n";
    out << "  \"symexec_seconds_resume_cold\": "
        << store_cold.stats.symexec_seconds << ",\n";
    out << "  \"symexec_seconds_resume_warm\": "
        << store_warm.stats.symexec_seconds << ",\n";
    out << "  \"resume_hit_rate\": " << store_warm.stats.store.hitRate()
        << ",\n";
    out << "  \"resume_store_bytes\": "
        << store_cold.stats.store.bytes_appended << ",\n";
    out << "  \"inst_on\": " << inst_on.statsJson() << ",\n";
    out << "  \"wall_seconds_inst_on\": " << inst_on_wall << ",\n";
    out << "  \"entries_instantiated_off\": " << ei_off << ",\n";
    out << "  \"entries_instantiated_on\": " << ei_on << ",\n";
    out << "  \"instantiation_reduction\": " << inst_reduction << ",\n";
    out << "  \"inst_cache_hit_rate\": " << ic.hitRate() << ",\n";
    out << "  \"summary_entries_compacted\": "
        << inst_on.stats.summary_entries_compacted << ",\n";
    out << "  \"symexec_seconds_inst_on\": "
        << inst_on.stats.symexec_seconds << ",\n";
    out << "  \"triage_on\": " << triage_run.statsJson() << ",\n";
    out << "  \"wall_seconds_triage\": " << triage_wall << ",\n";
    out << "  \"triage_seconds\": " << triage_run.triage.seconds
        << ",\n";
    out << "  \"triage_hp_units_lowered\": "
        << triage_run.triage.hp_units_lowered << ",\n";
    out << "  \"cross_pass_cache_hits\": "
        << triage_run.stats.query_cache.cross_pass_hits << ",\n";
    out << "  \"cross_pass_cache_hit_rate\": "
        << triage_run.stats.query_cache.crossPassRate() << "\n";
    out << "}\n";
    std::printf("wrote %s (%llu theory checks, query-cache hit rate %.2f; "
                "resume hit rate %.2f, warm symexec %.3fs; "
                "interning: instantiations %llu -> %llu (-%.0f%%), "
                "%llu entries compacted)\n",
                path, static_cast<unsigned long long>(checks_on),
                on.stats.query_cache.hitRate(),
                store_warm.stats.store.hitRate(),
                store_warm.stats.symexec_seconds,
                static_cast<unsigned long long>(ei_off),
                static_cast<unsigned long long>(ei_on),
                inst_reduction * 100,
                static_cast<unsigned long long>(
                    inst_on.stats.summary_entries_compacted));
    std::printf("triage: %zu report(s) -> %zu confirmed / %zu refuted, "
                "cross-pass cache hit rate %.2f\n",
                triage_run.triage.reports_triaged,
                triage_run.triage.confirmed, triage_run.triage.refuted,
                triage_run.stats.query_cache.crossPassRate());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    // RID_BENCH_JSON lets scripts/check.sh and the CMake `check` target
    // pin the output to the repo root regardless of working directory.
    const char *out = std::getenv("RID_BENCH_JSON");
    writeBenchJson(out && *out ? out : "BENCH_performance.json");
    return 0;
}
