/**
 * @file
 * Native half of the end-to-end benchmark (driven by run.py).
 *
 *   ridbench_harness gen <scale> <repeat> <drop_filler> <seed> <outdir>
 *
 *     Writes a seeded synthetic driver corpus to <outdir>: the Kernel-C
 *     files, files.txt (their paths relative to <outdir>, in generation
 *     order) and truth.tsv (name, rid_detects, induces_fp per generated
 *     pattern). The mix is CorpusMix::paperCalibrated(scale) with every
 *     pattern count multiplied by <repeat>, and without the category-3
 *     filler when <drop_filler> is 1.
 *
 *   ridbench_harness trace --out FILE --trace-json FILE [ridc flags] files
 *
 *     Repeats ridc's scan in process, calling each module's public entry
 *     points under spans this file owns, and prints one JSON object of
 *     per-layer metrics. The report lines ridc would print go to --out so
 *     the caller can hold them to the same oracle as a real scan. The
 *     tracer is never installed as the ambient tracer, so the checker's
 *     own spans stay off; only the layer boundaries below are recorded.
 *     Accepted ridc flags: --builtin-dpm --keep-going --triage
 *     --provenance FILE --store DIR --resume.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/classifier.h"
#include "core/rid.h"
#include "frontend/lexer.h"
#include "frontend/lower.h"
#include "frontend/parser.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "store/store.h"
#include "summary/spec.h"
#include "triage/triage.h"

namespace {

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "ridbench_harness: %s\n", msg.c_str());
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    // Same read as ridc's, so frontend.read_s times what ridc pays.
    std::ifstream in(path);
    if (!in)
        die("cannot open " + path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || !(out << text))
        die("cannot write " + path.string());
}

int
cmdGen(int argc, char **argv)
{
    if (argc != 7)
        die("usage: gen <scale> <repeat> <drop_filler> <seed> <outdir>");
    double scale = std::atof(argv[2]);
    int repeat = std::atoi(argv[3]);
    bool drop_filler = std::atoi(argv[4]) != 0;
    uint64_t seed = std::strtoull(argv[5], nullptr, 0);
    std::filesystem::path outdir = argv[6];
    if (scale <= 0 || repeat < 1)
        die("scale must be positive and repeat at least 1");

    auto mix = rid::kernel::CorpusMix::paperCalibrated(scale);
    for (auto &[kind, count] : mix.counts)
        count *= repeat;
    if (drop_filler)
        mix.counts.erase(rid::kernel::PatternKind::Cat3Filler);
    auto corpus = rid::kernel::generateCorpus(mix, seed);

    std::string list;
    for (const auto &file : corpus.files) {
        std::filesystem::path path = outdir / file.name;
        std::filesystem::create_directories(path.parent_path());
        writeFile(path, file.text);
        list += file.name + "\n";
    }
    writeFile(outdir / "files.txt", list);
    std::string truth;
    for (const auto &t : corpus.truth)
        truth += t.name + "\t" + (t.rid_detects ? "1" : "0") + "\t" +
                 (t.induces_fp ? "1" : "0") + "\n";
    writeFile(outdir / "truth.tsv", truth);
    return 0;
}

/** Span name -> summed duration (s), from one thread's nesting. */
struct SpanTotals
{
    std::map<std::string, double> total;
    std::map<std::string, double> self;
    std::vector<double> file_ms;
    double top_level = 0;
};

SpanTotals
spanTotals(const rid::obs::Tracer &tracer)
{
    SpanTotals out;
    // One thread only: the analyzer runs single-threaded and no worker
    // thread ever sees this tracer.
    std::vector<rid::obs::TraceEvent> events = tracer.threadEvents(0);
    std::vector<double> child(events.size(), 0);
    std::vector<size_t> open;
    for (size_t i = 0; i < events.size(); i++) {
        const auto &e = events[i];
        while (open.size() > e.depth)
            open.pop_back();
        double dur = static_cast<double>(e.dur_ns) * 1e-9;
        if (!open.empty())
            child[open.back()] += dur;
        else
            out.top_level += dur;
        open.push_back(i);
    }
    for (size_t i = 0; i < events.size(); i++) {
        double dur = static_cast<double>(events[i].dur_ns) * 1e-9;
        out.total[events[i].name] += dur;
        out.self[events[i].name] += dur - child[i];
        if (std::string(events[i].name) == "file")
            out.file_ms.push_back(dur * 1e3);
    }
    return out;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t k = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(k, v.size() - 1)];
}

int
cmdTrace(int argc, char **argv)
{
    rid::analysis::AnalyzerOptions opts;
    rid::frontend::LowerOptions lower_opts;
    std::string out_path, trace_json;
    std::vector<std::string> sources;
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                die("missing value after " + arg);
            return argv[i];
        };
        if (arg == "--out")
            out_path = next();
        else if (arg == "--trace-json")
            trace_json = next();
        else if (arg == "--builtin-dpm" || arg == "--keep-going")
            continue; // the only spec set and load mode this run supports
        else if (arg == "--triage")
            opts.triage = true;
        else if (arg == "--provenance")
            opts.provenance_path = next();
        else if (arg == "--store")
            opts.store_path = next();
        else if (arg == "--resume")
            opts.resume = true;
        else if (arg.rfind("--", 0) == 0)
            die("unsupported flag " + arg);
        else
            sources.push_back(arg);
    }
    if (out_path.empty() || trace_json.empty() || sources.empty())
        die("usage: trace --out FILE --trace-json FILE [flags] files...");

    using Clock = std::chrono::steady_clock;
    rid::obs::Tracer tracer;
    rid::obs::Tracer *t = &tracer;
    auto wall0 = Clock::now();

    auto db = std::make_unique<rid::summary::SummaryDb>();
    auto module = std::make_unique<rid::ir::Module>();
    std::vector<std::pair<std::string, std::string>> retained;
    std::vector<rid::FileDiagnostic> file_errors;
    uint64_t tokens = 0;
    {
        rid::obs::Span s(t, "bench", "specs");
        rid::summary::loadSpecsInto(rid::kernel::dpmSpecText(), *db);
    }
    {
        rid::obs::Span load(t, "bench", "load");
        for (const auto &path : sources) {
            std::optional<rid::ir::Module> lowered;
            std::string text;
            {
                rid::obs::Span file(t, "frontend", "file");
                {
                    rid::obs::Span s(t, "frontend", "read");
                    text = readFile(path);
                }
                // Mirrors Rid::addSourceTolerant: a file that fails to
                // parse or lower is rejected whole.
                try {
                    rid::frontend::AstUnit unit;
                    {
                        rid::obs::Span s(t, "frontend", "parse");
                        unit = rid::frontend::parseUnit(text);
                    }
                    rid::obs::Span s(t, "frontend", "lower");
                    lowered = rid::frontend::lowerUnit(unit, lower_opts);
                } catch (const std::exception &e) {
                    file_errors.push_back({path, e.what()});
                }
            }
            if (!lowered)
                continue;
            {
                // parseUnit tokenizes internally; this second, warm
                // tokenization lets parse_s subtract it. It stays outside
                // the file span so file_ms is what ridc pays per file.
                rid::obs::Span s(t, "frontend", "tokenize");
                tokens += rid::frontend::tokenize(text).size();
            }
            rid::obs::Span s(t, "ir", "absorb");
            module->absorb(std::move(*lowered));
            retained.emplace_back(std::string(), std::move(text));
        }
    }
    size_t ir_functions = module->size();
    {
        rid::obs::Span s(t, "analysis", "callgraph");
        rid::analysis::CallGraph cg(*module);
    }
    {
        rid::obs::Span s(t, "analysis", "classify");
        rid::analysis::FunctionClassifier classifier(
            *module, db->namesWithChanges(opts.enabled_domains));
    }
    std::shared_ptr<rid::store::AnalysisStore> store;
    if (!opts.store_path.empty()) {
        rid::obs::Span s(t, "store", "store-open");
        rid::store::AnalysisStore::Options sopts;
        sopts.path = opts.store_path;
        sopts.resume = opts.resume;
        sopts.config_fp = rid::store::configFingerprint(*db, opts);
        store = std::make_shared<rid::store::AnalysisStore>(sopts);
        opts.store = store;
    }

    std::unique_ptr<rid::analysis::Analyzer> analyzer;
    rid::RunResult result;
    {
        rid::obs::Span s(t, "analysis", "analyze");
        analyzer = std::make_unique<rid::analysis::Analyzer>(*module, *db,
                                                             opts);
        {
            rid::obs::Span run(t, "analysis", "analyzer-run");
            analyzer->run();
        }
        result.reports = analyzer->reports();
        result.stats = analyzer->stats();
        result.diagnostics = analyzer->diagnostics();
        result.file_errors = file_errors;
        result.profile = rid::obs::buildProfile(
            analyzer->functionCosts(),
            static_cast<size_t>(std::max(opts.profile_top_n, 0)));
    }
    const rid::analysis::AnalyzerStats main_stats = result.stats;
    if (opts.triage) {
        rid::obs::Span s(t, "triage", "triage");
        rid::triage::TriageOptions topts;
        topts.fuel = opts.triage_fuel;
        topts.extension_depth = opts.triage_extension_depth;
        topts.max_extension_functions = opts.triage_max_extension_functions;
        topts.max_paths = opts.max_paths;
        topts.max_subcases = opts.max_subcases;
        topts.lower = lower_opts;
        rid::triage::TriagePass pass(*module, *db, retained,
                                     analyzer->queryCache(), topts);
        {
            rid::obs::Span run(t, "triage", "triage-run");
            pass.run(result.reports);
        }
        result.triage = pass.stats();
        if (analyzer->queryCache())
            result.stats.query_cache = analyzer->queryCache()->stats();
    }
    size_t journal_bytes = 0;
    if (!opts.provenance_path.empty()) {
        rid::obs::Span s(t, "obs", "journal");
        std::string journal =
            rid::obs::renderJournal(rid::provenanceRecords(result));
        journal_bytes = journal.size();
        writeFile(opts.provenance_path, journal);
    }
    {
        // ridc's text output: report lines to stdout, stats to stderr.
        rid::obs::Span s(t, "core", "render");
        std::FILE *out = std::fopen(out_path.c_str(), "w");
        std::FILE *err = std::fopen("/dev/null", "w");
        if (!out || !err)
            die("cannot open " + out_path);
        for (const auto &report : result.reports)
            std::fprintf(out, "%s\n", report.str().c_str());
        std::fprintf(err, "%s", result.str().c_str());
        std::fclose(out);
        std::fclose(err);
    }
    {
        rid::obs::Span s(t, "ir", "teardown");
        analyzer.reset();
        store.reset();
        module.reset();
        db.reset();
        retained.clear();
        retained.shrink_to_fit();
    }
    double wall = std::chrono::duration<double>(Clock::now() - wall0).count();

    SpanTotals spans = spanTotals(tracer);
    writeFile(trace_json, tracer.chromeTraceJson());
    auto tot = [&](const char *name) {
        auto it = spans.total.find(name);
        return it == spans.total.end() ? 0.0 : it->second;
    };
    const auto &st = main_stats;
    double run_s = tot("analyzer-run");

    std::vector<std::pair<std::string, double>> m = {
        {"frontend.read_s", tot("read")},
        {"frontend.tokenize_s", tot("tokenize")},
        {"frontend.parse_s", tot("parse") - tot("tokenize")},
        {"frontend.lower_s", tot("lower")},
        {"frontend.tokens", static_cast<double>(tokens)},
        {"frontend.file_ms_p50", percentile(spans.file_ms, 0.50)},
        {"frontend.file_ms_p99", percentile(spans.file_ms, 0.99)},
        {"ir.absorb_s", tot("absorb")},
        {"ir.functions", static_cast<double>(ir_functions)},
        {"ir.teardown_s", tot("teardown")},
        {"analysis.callgraph_s", tot("callgraph")},
        {"analysis.classify_s", tot("classify")},
        {"analysis.run_s", run_s},
        {"analysis.driver_s", run_s - st.classify_seconds -
                                  st.symexec_seconds - st.ipp_seconds},
        {"analysis.functions_defaulted",
         static_cast<double>(st.functions_defaulted)},
        {"analysis.symexec_s", st.symexec_seconds},
        {"analysis.ipp_s", st.ipp_seconds},
        {"analysis.functions_analyzed",
         static_cast<double>(st.functions_analyzed)},
        {"analysis.paths", static_cast<double>(st.paths_enumerated)},
        {"analysis.blocks_executed", static_cast<double>(st.blocks_executed)},
        {"analysis.state_forks", static_cast<double>(st.state_forks)},
        {"smt.queries", static_cast<double>(st.solver.queries)},
        {"smt.theory_checks", static_cast<double>(st.solver.theory_checks)},
        {"smt.solve_s", st.solver.solveSeconds()},
        {"smt.query_cache_hit_rate", st.query_cache.hitRate()},
        {"summary.entries_instantiated",
         static_cast<double>(st.entries_instantiated)},
        {"summary.inst_cache_hit_rate", st.inst_cache.hitRate()},
        {"summary.entries_compacted",
         static_cast<double>(st.summary_entries_compacted)},
        {"triage.run_s", tot("triage-run")},
        {"triage.hp_functions_executed",
         static_cast<double>(result.triage.hp_functions_executed)},
        {"triage.queries", static_cast<double>(result.triage.solver.queries)},
        {"triage.cross_pass_hit_rate",
         result.triage.ran ? result.stats.query_cache.crossPassRate() : 0.0},
        {"store.open_s", tot("store-open")},
        {"store.hits", static_cast<double>(st.store.hits)},
        {"store.misses", static_cast<double>(st.store.misses)},
        {"store.bytes_appended", static_cast<double>(st.store.bytes_appended)},
        {"store.loaded_records", static_cast<double>(st.store.loaded_records)},
        {"core.render_s", tot("render")},
        {"obs.journal_s", tot("journal")},
        {"obs.journal_bytes", static_cast<double>(journal_bytes)},
        {"trace.coverage", wall > 0 ? spans.top_level / wall : 0.0},
        {"trace.unaccounted_s", wall - spans.top_level},
        {"trace.wall_s", wall},
    };

    std::printf("{\"metrics\": {");
    for (size_t i = 0; i < m.size(); i++)
        std::printf("%s\"%s\": %.9g", i ? ", " : "", m[i].first.c_str(),
                    m[i].second);
    std::printf("}, \"self_s\": {");
    bool first = true;
    for (const auto &[name, s] : spans.self) {
        std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), s);
        first = false;
    }
    std::printf("}, \"rejected_files\": [");
    for (size_t i = 0; i < file_errors.size(); i++)
        std::printf("%s\"%s\"", i ? ", " : "", file_errors[i].file.c_str());
    std::printf("], \"timeout\": %zu, \"degraded\": %zu, \"error\": %zu}\n",
                st.functions_timeout, st.functions_degraded,
                st.functions_error);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "gen")
        return cmdGen(argc, argv);
    if (cmd == "trace")
        return cmdTrace(argc, argv);
    die("usage: ridbench_harness gen|trace ...");
}
