#include "core/rid.h"

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/report_format.h"
#include "frontend/lower.h"
#include "frontend/parser.h"
#include "obs/failpoint.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/store.h"
#include "summary/spec.h"

namespace rid {

namespace {

obs::QueryRecord
queryRecordOf(const smt::QueryInfo &q)
{
    obs::QueryRecord out;
    out.fingerprint = q.fingerprint;
    out.result = smt::satResultName(q.result);
    out.cache_hit = q.cache_hit;
    out.trivial = q.trivial;
    out.fuel = q.fuel;
    return out;
}

/** Kind slug of a report. Escape-rule reports reuse BugKind::Inconsistent
 *  with a synthetic second "path" (the rule), recognizable by cons_b. */
const char *
reportKindName(const analysis::BugReport &r)
{
    if (r.kind == analysis::BugKind::Unbalanced)
        return "unbalanced";
    if (r.cons_b.rfind("(escape rule:", 0) == 0)
        return "escape";
    return "inconsistent";
}

} // anonymous namespace

std::vector<obs::ProvenanceRecord>
provenanceRecords(const std::vector<analysis::BugReport> &reports,
                  const std::vector<analysis::FunctionDiagnostic> &diagnostics)
{
    // Per-function degradation context; the worst status wins when a
    // function carries several diagnostics (diagnostics are name-sorted
    // with the worse status last for equal names, but don't rely on it).
    std::map<std::string, const analysis::FunctionDiagnostic *> by_fn;
    for (const auto &d : diagnostics) {
        auto [it, inserted] = by_fn.emplace(d.function, &d);
        if (!inserted && d.status > it->second->status)
            it->second = &d;
    }

    std::vector<obs::ProvenanceRecord> records;
    records.reserve(reports.size());
    for (const auto &r : reports) {
        obs::ProvenanceRecord rec;
        rec.tool = "rid";
        rec.function = r.function;
        rec.function_fp = r.function_fp;
        rec.fingerprint = r.fingerprint;
        rec.domain = r.domain;
        rec.kind = reportKindName(r);
        rec.counter = r.refcount;
        rec.path_a.cons = r.cons_a;
        rec.path_a.delta = r.delta_a;
        rec.path_a.lines = r.lines_a;
        rec.path_a.return_line = r.return_line_a;
        rec.path_a.callees = r.callees_a;
        if (r.kind == analysis::BugKind::Inconsistent) {
            // Escape reports keep their synthetic path_b (the rule text
            // and the expected delta) so the record is lossless.
            rec.has_path_b = true;
            rec.path_b.cons = r.cons_b;
            rec.path_b.delta = r.delta_b;
            rec.path_b.lines = r.lines_b;
            rec.path_b.return_line = r.return_line_b;
            rec.path_b.callees = r.callees_b;
        }
        for (const auto &q : r.queries)
            rec.queries.push_back(queryRecordOf(q));
        if (r.tier != analysis::Tier::Untriaged) {
            // Triage verdict plus rank; the deciding refutation queries
            // are already on r.queries (appended by the triage pass), so
            // the record carries its own evidence.
            rec.tier = analysis::tierName(r.tier);
            rec.rank = r.rank;
        }
        if (auto it = by_fn.find(r.function); it != by_fn.end()) {
            rec.status = analysis::fnStatusName(it->second->status);
            rec.budget = it->second->reason;
        }
        records.push_back(std::move(rec));
    }
    return records;
}

std::vector<obs::ProvenanceRecord>
provenanceRecords(const RunResult &result)
{
    return provenanceRecords(result.reports, result.diagnostics);
}

std::string
RunResult::str() const
{
    std::ostringstream os;
    os << reports.size() << " report(s)\n";
    for (const auto &r : reports)
        os << "  " << r.str() << "\n";
    if (triage.ran) {
        os << "triage: " << triage.confirmed << " confirmed, "
           << triage.unverified << " unverified, " << triage.low_confidence
           << " low-confidence, " << triage.refuted << " refuted; "
           << triage.hp_functions_executed << " function(s) re-executed ("
           << triage.hp_functions_incomplete << " incomplete), "
           << triage.hp_units_lowered << " unit(s) re-lowered, "
           << triage.extension_searches << " extension search(es), "
           << triage.downstream_releases_found << " downstream release(s)\n";
    }
    // Ref-only runs keep the pre-domain output byte for byte; the
    // breakdown line appears only once another domain reports.
    bool non_ref = false;
    for (const auto &[dom, n] : stats.reports_by_domain)
        non_ref = non_ref || dom != summary::kRefDomain;
    if (non_ref) {
        os << "reports by domain:";
        for (const auto &[dom, n] : stats.reports_by_domain)
            os << " " << dom << " " << n;
        os << "\n";
    }
    os << "functions: " << stats.categories.refcount_changing
       << " refcount-changing, " << stats.categories.affecting
       << " affecting, " << stats.categories.other << " others; "
       << stats.functions_analyzed << " analyzed ("
       << stats.functions_truncated << " truncated), "
       << stats.paths_enumerated << " paths\n";
    os << "solver: " << stats.solver.queries << " queries, "
       << stats.solver.theory_checks << " theory checks, "
       << stats.solver.branches << " branches, " << stats.solver.unknowns
       << " unknowns\n";
    const auto &qc = stats.query_cache;
    if (qc.hits + qc.misses > 0) {
        os << "query cache: " << qc.hits << " hit(s) / "
           << qc.misses << " miss(es) ("
           << static_cast<int>(qc.hitRate() * 100 + 0.5) << "% hit rate), "
           << qc.evictions << " eviction(s), " << qc.entries
           << " resident\n";
    }
    const auto &ic = stats.inst_cache;
    if (ic.hits + ic.misses > 0) {
        os << "inst cache: " << ic.hits << " hit(s) / " << ic.misses
           << " miss(es) ("
           << static_cast<int>(ic.hitRate() * 100 + 0.5) << "% hit rate), "
           << ic.evictions << " eviction(s), " << ic.entries
           << " resident\n";
    }
    if (stats.store.active) {
        os << "store: " << stats.store.hits << " hit(s) / "
           << stats.store.misses << " miss(es) ("
           << static_cast<int>(stats.store.hitRate() * 100 + 0.5)
           << "% hit rate), " << stats.store.retried << " retried, "
           << stats.store.quarantined << " quarantined, "
           << stats.store.torn_frames << " torn frame(s)\n";
    }
    os << "phases: classify " << stats.classify_seconds << "s, analyze "
       << stats.analyze_seconds << "s (symexec " << stats.symexec_seconds
       << "s, ipp " << stats.ipp_seconds << "s)\n";
    if (stats.functions_timeout + stats.functions_degraded +
            stats.functions_error + file_errors.size() >
        0) {
        os << "degraded: " << stats.functions_timeout << " timeout, "
           << stats.functions_degraded << " fault-isolated, "
           << stats.functions_error << " error, " << file_errors.size()
           << " file(s) rejected\n";
        for (const auto &d : diagnostics) {
            if (d.status != analysis::FnStatus::Ok &&
                d.status != analysis::FnStatus::Truncated) {
                os << "  " << d.function << ": "
                   << analysis::fnStatusName(d.status) << " (" << d.reason
                   << ")\n";
            }
        }
        for (const auto &f : file_errors)
            os << "  " << f.file << ": rejected (" << f.reason << ")\n";
    }
    return os.str();
}

std::string
RunResult::statsJson() const
{
    // Key set and order are a stable schema (strictly additive across
    // PRs): bench_performance and any external trajectory tooling
    // parse this document.
    const auto &s = stats;
    const auto &qc = s.query_cache;
    obs::JsonWriter w;
    w.beginObject();
    w.key("reports").value(uint64_t{reports.size()});
    w.key("functions").beginObject();
    w.key("refcount_changing").value(uint64_t{s.categories.refcount_changing});
    w.key("affecting").value(uint64_t{s.categories.affecting});
    w.key("other").value(uint64_t{s.categories.other});
    w.key("analyzed").value(uint64_t{s.functions_analyzed});
    w.key("defaulted").value(uint64_t{s.functions_defaulted});
    w.key("truncated").value(uint64_t{s.functions_truncated});
    // Additive key: functions whose IR was built on first read.
    w.key("lowered").value(uint64_t{s.functions_lowered});
    w.endObject();
    w.key("paths_enumerated").value(uint64_t{s.paths_enumerated});
    w.key("entries_computed").value(uint64_t{s.entries_computed});
    w.key("blocks_executed").value(uint64_t{s.blocks_executed});
    w.key("state_forks").value(uint64_t{s.state_forks});
    w.key("subtrees_pruned").value(uint64_t{s.subtrees_pruned});
    w.key("entries_instantiated").value(uint64_t{s.entries_instantiated});
    w.key("summary_entries_compacted")
        .value(uint64_t{s.summary_entries_compacted});
    w.key("phases").beginObject();
    w.key("classify_seconds").value(s.classify_seconds);
    w.key("analyze_seconds").value(s.analyze_seconds);
    w.key("symexec_seconds").value(s.symexec_seconds);
    w.key("ipp_seconds").value(s.ipp_seconds);
    w.endObject();
    w.key("solver").beginObject();
    w.key("queries").value(s.solver.queries);
    w.key("theory_checks").value(s.solver.theory_checks);
    w.key("branches").value(s.solver.branches);
    w.key("unknowns").value(s.solver.unknowns);
    w.key("cache_hits").value(s.solver.cache_hits);
    w.key("cache_misses").value(s.solver.cache_misses);
    w.key("solve_seconds").value(s.solver.solveSeconds());
    w.endObject();
    w.key("query_cache").beginObject();
    w.key("hits").value(qc.hits);
    w.key("misses").value(qc.misses);
    w.key("insertions").value(qc.insertions);
    w.key("evictions").value(qc.evictions);
    w.key("collisions").value(qc.collisions);
    w.key("entries").value(uint64_t{qc.entries});
    w.key("hit_rate").value(qc.hitRate());
    // Cross-pass sharing (additive keys): hits whose entry was inserted
    // by the other pass (main analysis vs. triage). Zero unless the
    // triage pass ran and re-hit main-pass verdicts (or vice versa).
    w.key("cross_pass_hits").value(qc.cross_pass_hits);
    w.key("cross_pass_hit_rate").value(qc.crossPassRate());
    w.endObject();
    const auto &ic = s.inst_cache;
    w.key("inst_cache").beginObject();
    w.key("hits").value(ic.hits);
    w.key("misses").value(ic.misses);
    w.key("insertions").value(ic.insertions);
    w.key("evictions").value(ic.evictions);
    w.key("collisions").value(ic.collisions);
    w.key("entries").value(uint64_t{ic.entries});
    w.key("hit_rate").value(ic.hitRate());
    w.endObject();
    w.key("profile").raw(profile.json());
    // Per-effect-domain report counts (additive key; name-ordered, only
    // domains that produced reports appear).
    w.key("domains").beginObject();
    for (const auto &[dom, n] : s.reports_by_domain) {
        w.key(dom).beginObject();
        w.key("reports").value(uint64_t{n});
        w.endObject();
    }
    w.endObject();
    // Robustness accounting (additive key): how every function's analysis
    // ended plus per-function/per-file degradation records.
    w.key("diagnostics").beginObject();
    w.key("counts").beginObject();
    uint64_t not_ok = s.functions_truncated + s.functions_timeout +
                      s.functions_degraded + s.functions_error;
    uint64_t ok = s.functions_analyzed >= s.functions_truncated
                      ? s.functions_analyzed - s.functions_truncated
                      : 0;
    w.key("ok").value(ok);
    w.key("truncated").value(uint64_t{s.functions_truncated});
    w.key("timeout").value(uint64_t{s.functions_timeout});
    w.key("degraded").value(uint64_t{s.functions_degraded});
    w.key("error").value(uint64_t{s.functions_error});
    w.key("not_ok").value(not_ok);
    w.endObject();
    writeDiagnostics(w, "functions", diagnostics, "files", file_errors);
    w.endObject();
    // Triage accounting (additive key; present only when the triage pass
    // ran). Tier counts partition `reports`.
    if (triage.ran) {
        w.key("triage").beginObject();
        w.key("reports_triaged").value(uint64_t{triage.reports_triaged});
        w.key("confirmed").value(uint64_t{triage.confirmed});
        w.key("unverified").value(uint64_t{triage.unverified});
        w.key("low_confidence").value(uint64_t{triage.low_confidence});
        w.key("refuted").value(uint64_t{triage.refuted});
        w.key("hp_functions_executed")
            .value(uint64_t{triage.hp_functions_executed});
        w.key("hp_functions_incomplete")
            .value(uint64_t{triage.hp_functions_incomplete});
        w.key("hp_units_lowered").value(uint64_t{triage.hp_units_lowered});
        w.key("extension_searches")
            .value(uint64_t{triage.extension_searches});
        w.key("downstream_releases_found")
            .value(uint64_t{triage.downstream_releases_found});
        w.key("faults").value(uint64_t{triage.faults});
        w.key("budget_stops").value(uint64_t{triage.budget_stops});
        w.key("solver").beginObject();
        w.key("queries").value(triage.solver.queries);
        w.key("cache_hits").value(triage.solver.cache_hits);
        w.key("cache_misses").value(triage.solver.cache_misses);
        w.key("budget_stops").value(triage.solver.budget_stops);
        w.endObject();
        w.key("seconds").value(triage.seconds);
        w.endObject();
    }
    // Durable-store accounting (additive key; present only when a store
    // was attached to the run).
    if (s.store.active) {
        w.key("store").beginObject();
        w.key("hits").value(uint64_t{s.store.hits});
        w.key("misses").value(uint64_t{s.store.misses});
        w.key("retried").value(uint64_t{s.store.retried});
        w.key("quarantined").value(uint64_t{s.store.quarantined});
        w.key("torn_frames").value(uint64_t{s.store.torn_frames});
        w.key("loaded_records").value(uint64_t{s.store.loaded_records});
        w.key("failed_writes").value(uint64_t{s.store.failed_writes});
        w.key("bytes_appended").value(s.store.bytes_appended);
        w.key("hit_rate").value(s.store.hitRate());
        w.endObject();
    }
    w.endObject();
    return w.str();
}

/**
 * The Rid's LowerOptions and the (name, source) pair of every committed
 * unit. addSource() commits exactly one unit per retained source, so a
 * skeleton's unit indexes the list. Nothing is appended while a run
 * reads it, so builds on several threads need no lock here.
 */
struct Rid::Retained final : ir::Lowering
{
    explicit Retained(frontend::LowerOptions opts) : options(opts) {}

    const frontend::LowerOptions options;
    std::vector<std::pair<std::string, std::string>> sources;

    std::unique_ptr<ir::Function>
    lower(const ir::Skeleton &fn) const override
    {
        return frontend::lowerSpan(sources.at(fn.unit).second, fn.span,
                                   options);
    }
};

Rid::Rid(analysis::AnalyzerOptions opts, frontend::LowerOptions lower_opts)
    : opts_(opts), retained_(std::make_shared<Retained>(lower_opts))
{
    module_.setLowering(retained_);
}

void
Rid::loadSpecText(const std::string &text)
{
    load_seeds_.reset();
    summary::loadSpecsInto(text, db_);
}

void
Rid::loadSpecFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open spec file: " + path);
    std::stringstream buf;
    buf << in.rdbuf();
    loadSpecText(buf.str());
}

void
Rid::addSource(std::string kernel_c_source)
{
    if (kernel_c_source.size() > UINT32_MAX)
        throw frontend::ParseError("source larger than 4 GiB", 0);
    // The whole unit is lowered here, so every lowering-time check still
    // rejects the file. Its functions are committed only once every one
    // of them has lowered and verified, so a rejected unit leaves the
    // module as it was and does not use up a unit ordinal. The commit
    // keeps skeletons and spans and frees the IR, except for direct
    // callers of the APIs whose summaries change a counter (category 1
    // in any run without a --domains filter); a store keys every
    // tracked function by its fingerprint, so take those while the IR
    // is at hand.
    frontend::AstUnit ast = frontend::parseUnit(kernel_c_source);
    std::vector<std::unique_ptr<ir::Function>> fns =
        frontend::lowerFunctions(ast, retained_->options);
    if (!load_seeds_) {
        load_seeds_.emplace();
        for (const std::string &name : db_.namesWithChanges())
            load_seeds_->emplace_back(name);
    }
    module_.commit(std::move(fns), frontend::spansOf(ast),
                   !opts_.store_path.empty(), *load_seeds_);
    // Only committed units are kept (the tolerant path must not feed
    // triage a unit the run rejected), so a function's unit indexes the
    // retained list.
    retained_->sources.emplace_back(std::string(),
                                    std::move(kernel_c_source));
}

bool
Rid::addSourceTolerant(const std::string &name, std::string kernel_c_source)
{
    // File-level fault isolation: one unparseable unit (or one whose
    // lowering produced invalid IR, or an injected frontend fault) must
    // not take down a multi-file scan. The file's functions simply don't
    // take part in the run; callers see why via fileDiagnostics().
    obs::FailpointScope fp_scope(name);
    try {
        addSource(std::move(kernel_c_source));
        return true;
    } catch (const std::exception &e) {
        file_errors_.push_back(FileDiagnostic{name, e.what()});
        return false;
    }
}

void
Rid::rejectFile(std::string file, std::string reason)
{
    file_errors_.push_back(FileDiagnostic{std::move(file), std::move(reason)});
}

bool
Rid::loadSpecTolerant(const std::string &name, const std::string &text)
{
    // Spec-level fault isolation, mirroring addSourceTolerant: one
    // malformed spec file must not take down a multi-spec scan.
    try {
        loadSpecText(text);
        return true;
    } catch (const std::exception &e) {
        file_errors_.push_back(FileDiagnostic{name, e.what()});
        return false;
    }
}

void
Rid::importSummaries(const std::string &spec_text)
{
    // Imports may reference domains declared in the exporting run (the
    // export prepends their declarations) or in specs already loaded
    // here; either way they are registered before the summaries land.
    load_seeds_.reset();
    summary::DomainTable known = db_.domains();
    summary::ParsedSpec spec = summary::parseSpecText(spec_text, &known);
    for (const auto &d : spec.domains)
        db_.declareDomain(d);
    for (auto &parsed : spec.summaries)
        db_.addComputed(std::move(parsed.summary));
}

std::string
Rid::exportSummaries() const
{
    return db_.saveComputed();
}

namespace {

void
writeTextFile(const std::string &path, const std::string &contents,
              const char *what)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error(std::string("cannot write ") + what +
                                 " file: " + path);
    out << contents;
}

} // anonymous namespace

RunResult
Rid::run()
{
    if (ran_)
        throw std::logic_error("Rid::run() called twice");
    ran_ = true;
    analysis::AnalyzerOptions run_opts = opts_;
    if (!run_opts.store && !run_opts.store_path.empty()) {
        // The config fingerprint is taken now, after every spec/domain/
        // summary load, so it keys exactly the inputs this run will
        // analyze under.
        store::AnalysisStore::Options sopts;
        sopts.path = opts_.store_path;
        sopts.resume = opts_.resume;
        sopts.config_fp = store::configFingerprint(db_, opts_);
        run_opts.store = std::make_shared<store::AnalysisStore>(sopts);
    }
    analysis::Analyzer analyzer(module_, db_, run_opts);

    // Abnormal-exit salvage: register every configured export with the
    // exit-flush registry before analysis starts, so a budget-expired
    // process kill, an uncaught fault or Ctrl-C still leaves partial
    // trace/metrics/provenance files behind. The registrations capture
    // the stack-local analyzer, which is alive for exactly the window
    // they are live: the guard unregisters on every exit path (including
    // an export-write failure unwinding past the analyzer).
    struct FlushGuard
    {
        std::vector<int> ids;
        ~FlushGuard()
        {
            for (int id : ids)
                obs::unregisterExitFlush(id);
        }
    } flush_guard;
    std::vector<int> &flush_ids = flush_guard.ids;
    if (!opts_.trace_path.empty())
        flush_ids.push_back(obs::registerExitFlush(
            opts_.trace_path, [&analyzer]() {
                return analyzer.tracer()
                           ? analyzer.tracer()->chromeTraceJson()
                           : std::string();
            }));
    if (!opts_.metrics_path.empty())
        flush_ids.push_back(obs::registerExitFlush(
            opts_.metrics_path, [&analyzer]() {
                return analyzer.metrics()->prometheusText();
            }));
    if (!opts_.provenance_path.empty())
        flush_ids.push_back(obs::registerExitFlush(
            opts_.provenance_path, [&analyzer]() {
                return obs::renderJournal(provenanceRecords(
                    analyzer.reports(), analyzer.diagnostics()));
            }));

    analyzer.run();
    RunResult result;
    result.reports = analyzer.reports();
    result.diagnostics = analyzer.diagnostics();
    result.file_errors = file_errors_;
    result.profile =
        obs::buildProfile(analyzer.functionCosts(),
                          opts_.profile_top_n > 0
                              ? static_cast<size_t>(opts_.profile_top_n)
                              : 0);
    if (opts_.triage) {
        // Runs after the analysis result is assembled (stored records
        // carry pre-triage reports; resumed runs re-triage) and before
        // the provenance journal is written, so journaled records carry
        // tiers and ranks. The pass shares the run's query cache: its
        // higher-precision queries differ structurally from the base
        // pass's exactly where the precision matters, so shared verdicts
        // are sound and the overlap is genuine cross-pass reuse.
        triage::TriageOptions topts;
        topts.fuel = opts_.triage_fuel;
        topts.extension_depth = opts_.triage_extension_depth;
        topts.max_extension_functions = opts_.triage_max_extension_functions;
        topts.max_paths = opts_.max_paths;
        topts.max_subcases = opts_.max_subcases;
        topts.lower = retained_->options;
        triage::TriagePass pass(module_, db_, retained_->sources,
                                analyzer.queryCache(), topts);
        {
            obs::ScopedTracer scoped(analyzer.tracer().get());
            pass.run(result.reports);
        }
        result.triage = pass.stats();
    }
    // Read after triage: the query cache counts the pass's traffic too.
    result.stats = analyzer.stats();
    if (!opts_.trace_path.empty() && analyzer.tracer())
        writeTextFile(opts_.trace_path,
                      analyzer.tracer()->chromeTraceJson(), "trace");
    if (!opts_.provenance_path.empty()) {
        // Journal the run's provenance records, then account for them in
        // the metrics registry before the metrics dump is written so the
        // provenance counters appear in it.
        auto records = provenanceRecords(result);
        std::string journal = obs::renderJournal(std::move(records));
        writeTextFile(opts_.provenance_path, journal, "provenance");
        std::map<std::string, uint64_t> by_domain;
        for (const auto &r : result.reports)
            by_domain[r.domain]++;
        auto &metrics = *analyzer.metrics();
        for (const auto &[dom, n] : by_domain) {
            metrics
                .counter("rid_provenance_records_" + dom + "_total",
                         "Provenance records journaled for effect domain '" +
                             dom + "'.")
                .inc(n);
        }
        metrics
            .histogram("rid_provenance_journal_bytes",
                       "Rendered provenance journal size (bytes).",
                       obs::byteSizeBuckets())
            .observe(static_cast<double>(journal.size()));
    }
    if (!opts_.metrics_path.empty())
        writeTextFile(opts_.metrics_path,
                      analyzer.metrics()->prometheusText(), "metrics");
    return result;
}

} // namespace rid
