#include "analysis/analyzer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <thread>

#include "analysis/callgraph.h"
#include "obs/failpoint.h"
#include "summary/compact.h"

namespace rid::analysis {

namespace {

/** The module's functions as default-summary slots: slot k is function
 *  k, which is also call-graph node k. */
class ModuleSlots final : public summary::DefaultSlots
{
  public:
    explicit ModuleSlots(const ir::Module &mod) : mod_(mod) {}

    size_t size() const override { return mod_.size(); }
    int slotOf(const std::string &fn) const override
    {
        return mod_.indexOf(fn);
    }
    const std::string &nameOf(int slot) const override
    {
        return mod_.skeleton(slot).name.str();
    }
    bool returnsValue(int slot) const override
    {
        return mod_.skeleton(slot).returns_value;
    }

  private:
    const ir::Module &mod_;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // anonymous namespace

const char *
fnStatusName(FnStatus s)
{
    switch (s) {
      case FnStatus::Ok: return "ok";
      case FnStatus::Truncated: return "truncated";
      case FnStatus::Timeout: return "timeout";
      case FnStatus::Degraded: return "degraded";
      case FnStatus::Error: return "error";
    }
    return "?";
}

Analyzer::Analyzer(const ir::Module &mod, summary::SummaryDb &db,
                   AnalyzerOptions opts)
    : mod_(mod), db_(db), opts_(opts)
{
    tracer_ = opts_.tracer;
    if (!tracer_ && !opts_.trace_path.empty())
        tracer_ = std::make_shared<obs::Tracer>();
    metrics_ = std::make_shared<obs::MetricsRegistry>();

    auto &m = *metrics_;
    ins_.functions_analyzed = &m.counter(
        "rid_functions_analyzed_total", "Functions fully analyzed.");
    ins_.functions_defaulted =
        &m.counter("rid_functions_defaulted_total",
                   "Functions given the default summary unanalyzed.");
    ins_.ir_functions_lowered =
        &m.counter("rid_ir_functions_lowered_total",
                   "Functions whose IR was built on first read.");
    ins_.functions_truncated =
        &m.counter("rid_functions_truncated_total",
                   "Functions whose path/subcase caps truncated analysis.");
    ins_.functions_timeout =
        &m.counter("rid_functions_timeout_total",
                   "Functions degraded to the default summary by budget "
                   "expiry.");
    ins_.functions_degraded =
        &m.counter("rid_functions_degraded_total",
                   "Functions whose analysis fault was isolated.");
    ins_.functions_error =
        &m.counter("rid_functions_error_total",
                   "Functions that faulted outside the guarded analysis.");
    ins_.solver_budget_stops =
        &m.counter("rid_solver_budget_stops_total",
                   "Solver queries answered Unknown by budget expiry.");
    ins_.paths_enumerated = &m.counter("rid_paths_enumerated_total",
                                       "Entry-to-exit paths enumerated.");
    ins_.entries_computed =
        &m.counter("rid_entries_computed_total",
                   "Path summary entries computed before IPP merging.");
    ins_.blocks_executed =
        &m.counter("rid_blocks_executed_total",
                   "Basic blocks stepped during symbolic execution.");
    ins_.state_forks =
        &m.counter("rid_state_forks_total",
                   "State-set forks at conditional branches "
                   "(prefix-sharing engine).");
    ins_.subtrees_pruned =
        &m.counter("rid_subtrees_pruned_total",
                   "CFG subtrees skipped on an unsatisfiable path "
                   "condition (prefix-sharing engine).");
    ins_.entries_instantiated =
        &m.counter("rid_entries_instantiated_total",
                   "Callee summary entries instantiated from scratch "
                   "(inst-cache misses when interning is on).");
    ins_.summary_entries_compacted =
        &m.counter("rid_summary_entries_compacted_total",
                   "Summary entries merged or dropped by bottom-up "
                   "compaction before entering the database.");
    ins_.solver_queries =
        &m.counter("rid_solver_queries_total", "Solver check() calls.");
    ins_.solver_theory_checks = &m.counter(
        "rid_solver_theory_checks_total", "Theory-core conjunction checks.");
    ins_.solver_branches = &m.counter("rid_solver_branches_total",
                                      "Solver branch enumerations.");
    ins_.solver_unknowns = &m.counter("rid_solver_unknowns_total",
                                      "Solver Unknown results.");
    ins_.solver_cache_hits = &m.counter(
        "rid_solver_cache_hits_total", "Queries answered by the cache.");
    ins_.solver_cache_misses =
        &m.counter("rid_solver_cache_misses_total",
                   "Non-trivial queries that missed the cache.");
    ins_.solver_solve_ns =
        &m.counter("rid_solver_solve_ns_total",
                   "Wall nanoseconds spent inside solver check().");
    ins_.classify_seconds = &m.gauge(
        "rid_classify_seconds", "Wall time of the classification phase.");
    ins_.analyze_seconds = &m.gauge(
        "rid_analyze_seconds", "Wall time of the bottom-up analysis.");
    ins_.paths_per_function =
        &m.histogram("rid_paths_per_function",
                     "Enumerated paths per analyzed function.",
                     obs::pathCountBuckets());
    ins_.symexec_seconds =
        &m.histogram("rid_symexec_seconds",
                     "Per-function symbolic-execution phase wall time.");
    ins_.ipp_seconds = &m.histogram(
        "rid_ipp_seconds", "Per-function IPP check-and-merge wall time.");
    ins_.solver_query_seconds = &m.histogram(
        "rid_solver_query_seconds", "Solver query latency (seconds).");
    // The shared caches count their own traffic; these gauges read it
    // there on every exposition, so they include later passes that share
    // the query cache (triage).
    auto bindCache = [&m](const std::string &cache, const std::string &what,
                          std::function<smt::LruStats()> read) {
        const std::string prefix = "rid_" + cache + "_";
        m.gauge(prefix + "hits", "Shared " + what + " hits.").bind([read] {
            return static_cast<double>(read().hits);
        });
        m.gauge(prefix + "misses", "Shared " + what + " misses.")
            .bind([read] { return static_cast<double>(read().misses); });
        m.gauge(prefix + "entries", "Resident " + what + " entries.")
            .bind([read] { return static_cast<double>(read().entries); });
        m.gauge(prefix + "evictions", "Shared " + what + " evictions.")
            .bind([read] { return static_cast<double>(read().evictions); });
    };
    bindCache("query_cache", "query-cache",
              [cache = query_cache_] { return cache->stats(); });
    bindCache("inst_cache", "instantiation-cache",
              [cache = inst_cache_] { return cache->stats(); });

    store_ = opts_.store;
    if (store_) {
        store_config_fp_ = store_->configFingerprint();
        ins_.store_hits =
            &m.counter("rid_store_hits_total",
                       "Functions replayed from the analysis store "
                       "(symexec skipped).");
        ins_.store_misses =
            &m.counter("rid_store_misses_total",
                       "Store lookups that fell back to re-analysis.");
        ins_.store_retries =
            &m.counter("rid_store_retries_total",
                       "Previously failed functions re-run under a "
                       "supervisor-laddered budget.");
        ins_.store_quarantined =
            &m.counter("rid_store_quarantined_total",
                       "Functions quarantined after exhausting the retry "
                       "ladder.");
        ins_.store_torn_frames =
            &m.counter("rid_store_torn_frames_total",
                       "Store frames dropped by the recovery scan.");
        ins_.store_record_bytes =
            &m.histogram("rid_store_record_bytes",
                         "Bytes appended to the store per function record.",
                         obs::byteSizeBuckets());
    }

    // Arm the process-wide fault-injection registry when asked to. An
    // empty spec leaves any existing arming alone (tests drive the
    // registry directly).
    if (!opts_.failpoints.empty())
        obs::FailpointRegistry::instance().configure(opts_.failpoints,
                                                     opts_.failpoint_seed);
}

smt::Solver
Analyzer::makeSolver(const obs::Budget *budget) const
{
    smt::Solver::Options sopts;
    sopts.trace_queries = opts_.trace_solver_queries;
    smt::Solver solver(sopts);
    solver.attachCache(query_cache_);
    solver.attachLatencyHistogram(ins_.solver_query_seconds);
    solver.attachBudget(budget);
    return solver;
}

void
Analyzer::addSolverStats(const smt::Solver::Stats &s)
{
    ins_.solver_queries->inc(s.queries);
    ins_.solver_theory_checks->inc(s.theory_checks);
    ins_.solver_branches->inc(s.branches);
    ins_.solver_unknowns->inc(s.unknowns);
    ins_.solver_cache_hits->inc(s.cache_hits);
    ins_.solver_cache_misses->inc(s.cache_misses);
    ins_.solver_solve_ns->inc(s.solve_ns);
    ins_.solver_budget_stops->inc(s.budget_stops);
}

AnalyzerStats
Analyzer::stats() const
{
    AnalyzerStats s;
    if (classifier_)
        s.categories = classifier_->stats();
    s.functions_analyzed = ins_.functions_analyzed->value();
    s.functions_defaulted = ins_.functions_defaulted->value();
    s.functions_lowered = mod_.lowered();
    s.paths_enumerated = ins_.paths_enumerated->value();
    s.entries_computed = ins_.entries_computed->value();
    s.blocks_executed = ins_.blocks_executed->value();
    s.state_forks = ins_.state_forks->value();
    s.subtrees_pruned = ins_.subtrees_pruned->value();
    s.functions_truncated = ins_.functions_truncated->value();
    s.functions_timeout = ins_.functions_timeout->value();
    s.functions_degraded = ins_.functions_degraded->value();
    s.functions_error = ins_.functions_error->value();
    s.classify_seconds = ins_.classify_seconds->value();
    s.analyze_seconds = ins_.analyze_seconds->value();
    s.symexec_seconds = ins_.symexec_seconds->sum();
    s.ipp_seconds = ins_.ipp_seconds->sum();
    s.entries_instantiated = ins_.entries_instantiated->value();
    s.summary_entries_compacted = ins_.summary_entries_compacted->value();
    s.solver.queries = ins_.solver_queries->value();
    s.solver.theory_checks = ins_.solver_theory_checks->value();
    s.solver.branches = ins_.solver_branches->value();
    s.solver.unknowns = ins_.solver_unknowns->value();
    s.solver.cache_hits = ins_.solver_cache_hits->value();
    s.solver.cache_misses = ins_.solver_cache_misses->value();
    s.solver.solve_ns = ins_.solver_solve_ns->value();
    s.solver.budget_stops = ins_.solver_budget_stops->value();
    s.query_cache = query_cache_->stats();
    s.inst_cache = inst_cache_->stats();
    for (const BugReport &r : reports_)
        s.reports_by_domain[r.domain]++;
    if (store_) {
        FunctionStore::IoStats io = store_->ioStats();
        s.store.active = true;
        s.store.hits = ins_.store_hits->value();
        s.store.misses = ins_.store_misses->value();
        s.store.retried = ins_.store_retries->value();
        s.store.quarantined = ins_.store_quarantined->value();
        s.store.torn_frames = io.torn_frames;
        s.store.loaded_records = io.loaded_records;
        s.store.failed_writes = io.failed_writes;
        s.store.bytes_appended = io.bytes_appended;
    }
    return s;
}

std::vector<obs::FunctionCost>
Analyzer::functionCosts() const
{
    std::vector<obs::FunctionCost> costs = function_costs_;
    std::sort(costs.begin(), costs.end(),
              [](const obs::FunctionCost &a, const obs::FunctionCost &b) {
                  return a.name < b.name;
              });
    return costs;
}

std::vector<FunctionDiagnostic>
Analyzer::diagnostics() const
{
    std::vector<FunctionDiagnostic> out = diagnostics_;
    std::sort(out.begin(), out.end(),
              [](const FunctionDiagnostic &a, const FunctionDiagnostic &b) {
                  if (a.function != b.function)
                      return a.function < b.function;
                  return a.status < b.status;
              });
    return out;
}

void
Analyzer::recordDiagnostic(FunctionDiagnostic d)
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    diagnostics_.push_back(std::move(d));
}

std::vector<BugReport>
Analyzer::fallBack(int node, FnStatus status, const std::string &reason,
                   bool persist)
{
    if (tracked(node))
        db_.markDefaulted(node);
    obs::Counter *counter = status == FnStatus::Timeout
                                ? ins_.functions_timeout
                            : status == FnStatus::Degraded
                                ? ins_.functions_degraded
                                : ins_.functions_error;
    counter->inc();
    recordDiagnostic({nameOf(node), status, reason});
    if (persist)
        recordToStore(node, status, reason, false, nullptr, {});
    return {};
}

const std::string &
Analyzer::nameOf(int node) const
{
    return mod_.skeleton(node).name.str();
}

void
Analyzer::recordToStore(int node, FnStatus status, const std::string &reason,
                        bool defaulted,
                        const summary::FunctionSummary *summary,
                        const std::vector<BugReport> &reports)
{
    if (!store_)
        return;
    size_t n = store_->record(
        {nameOf(node), mod_.fingerprint(node), store_config_fp_},
        status, reason, defaulted, summary, reports);
    if (n > 0 && ins_.store_record_bytes)
        ins_.store_record_bytes->observe(static_cast<double>(n));
}

std::vector<BugReport>
Analyzer::analyzeFunction(int node, double deadline_seconds, uint64_t fuel)
{
    const std::string &name = nameOf(node);
    obs::Span fn_span("function", "analyze-function");
    fn_span.arg("fn", name);
    obs::FailpointScope fp_scope(name);

    // Child of the run budget: expires at the earlier of its own
    // deadline/fuel and the run's. A generous budget that never fires
    // leaves results byte-identical to an unbudgeted run. The budget is
    // normally the run's per-function configuration; a supervised retry
    // passes the ladder's halved values instead.
    obs::Budget fn_budget(run_budget_.get(), deadline_seconds, fuel);
    try {
        return analyzeFunctionGuarded(node, fn_budget);
    } catch (const std::exception &e) {
        // Fault isolation: whatever went wrong while analyzing this
        // function (an injected fault, an IR invariant violation, a spec
        // problem) is confined to it. The function is degraded to the
        // conservative default summary — the same weakening the paper
        // applies to truncated functions — and the run continues.
        return fallBack(node, FnStatus::Degraded, e.what());
    }
}

std::vector<BugReport>
Analyzer::analyzeFunctionGuarded(int node, const obs::Budget &fn_budget)
{
    const ir::Function &fn = mod_.function(node);
    const obs::Budget *budget = fn_budget.unlimited() ? nullptr : &fn_budget;
    smt::Solver solver = makeSolver(budget);

    // Degradation ladder, final rung: budget expiry anywhere in this
    // function discards all partial (timing-dependent) results and stores
    // the default summary, so budgeted runs stay deterministic for every
    // function whose budget did not fire.
    auto timedOut = [&]() { return budget && budget->expiredNow(); };
    auto degradeToTimeout = [&]() {
        // Results are discarded, but solver counters (budget_stops in
        // particular) are observability and must survive the discard.
        addSolverStats(solver.stats());
        return fallBack(node, FnStatus::Timeout,
                        std::string("budget: ") +
                            obs::budgetStopName(fn_budget.stopReason()));
    };

    // One depth-first CFG-tree walk executes every path: each tree edge
    // runs once and infeasible subtrees are skipped as soon as the path
    // condition becomes unsatisfiable (see DESIGN.md, "Prefix-sharing
    // symbolic execution").
    auto symexec_t0 = std::chrono::steady_clock::now();
    TreeExecResult tree;
    {
        obs::Span symexec_span("phase", "symexec");
        symexec_span.arg("fn", fn.name());
        TreeExecOptions tree_opts;
        tree_opts.max_subcases = opts_.max_subcases;
        tree_opts.budget = budget;
        tree_opts.max_paths = opts_.max_paths;
        tree_opts.inst_cache = inst_cache_.get();
        tree = executeFunctionTree(fn, db_, solver, tree_opts);
    }
    double symexec_seconds = secondsSince(symexec_t0);
    if (tree.deadline_hit || timedOut())
        return degradeToTimeout();
    const bool truncated = tree.truncated;
    const size_t num_paths = tree.completed.size();
    std::vector<summary::SummaryEntry> path_entries;
    for (auto &outcome : tree.completed)
        for (auto &e : outcome.entries)
            path_entries.push_back(std::move(e));

    IppOptions ipp_opts;
    ipp_opts.domains = &domain_table_;
    ipp_opts.enabled_domains =
        opts_.enabled_domains.empty() ? nullptr : &opts_.enabled_domains;
    size_t num_entries = path_entries.size();
    auto ipp_t0 = std::chrono::steady_clock::now();
    auto ipp = checkAndMerge(fn.name(), std::move(path_entries), solver,
                             ipp_opts);
    double ipp_seconds = secondsSince(ipp_t0);
    // The budget can also fire inside IPP (solver fuel / deadline); the
    // merged entries and reports are then partial and must go too.
    if (timedOut())
        return degradeToTimeout();

    summary::FunctionSummary summary;
    summary.function = fn.name();
    summary.params.assign(fn.params().begin(), fn.params().end());
    summary.returns_value = fn.returnsValue();
    summary.entries = std::move(ipp.entries);
    summary.is_truncated = truncated;
    if (opts_.summary_check) {
        for (auto &extra : opts_.summary_check(summary))
            ipp.reports.push_back(std::move(extra));
    }
    if (!ipp.reports.empty()) {
        // Stamp stable report identities (after summary_check so the
        // escape-rule reports get theirs too). Every fingerprint input is
        // byte-stable across threads/cache settings, so the
        // stamps are as deterministic as the reports themselves.
        uint64_t fn_fp = mod_.fingerprint(node);
        for (auto &r : ipp.reports) {
            r.function_fp = fn_fp;
            r.fingerprint = r.computeFingerprint(fn_fp);
        }
    }
    if (truncated || summary.entries.empty()) {
        // Limits cut the analysis short: weaken with the default entry so
        // callers never trust an incomplete summary too much
        // (Section 5.2).
        summary.entries.push_back(std::move(
            summary::FunctionSummary::defaultFor(fn.name(), fn.returnsValue())
                .entries.front()));
    }
    // With pruning the path cap counts feasible completed paths only;
    // say how many infeasible subtrees were skipped before it filled,
    // so a "cap hit" on a heavily-pruned function reads differently
    // from a plain structural explosion.
    std::string trunc_reason;
    if (truncated) {
        trunc_reason = "path/subcase cap truncated analysis";
        if (tree.path_cap_hit && tree.subtrees_pruned > 0)
            trunc_reason += " after pruning " +
                            std::to_string(tree.subtrees_pruned) +
                            " infeasible subtrees";
    }
    // Bottom-up compaction, after every report-generating phase: merging
    // call-boundary-indistinguishable entries (and dropping unsatisfiable
    // ones) shrinks what callers instantiate without touching what this
    // function reported. Runs against the same budget-attached solver, so
    // its validity proofs consume the function's remaining fuel and an
    // expiry degrades exactly like one inside IPP.
    summary::CompactionStats compaction;
    if (opts_.compact_summaries) {
        obs::Span compact_span("phase", "summary-compact");
        compact_span.arg("fn", fn.name());
        compaction = summary::compactSummary(summary, solver);
        if (timedOut())
            return degradeToTimeout();
    }
    // Persist before the summary is moved into the db: one frame carries
    // the complete outcome (status, summary, stamped reports).
    recordToStore(node, truncated ? FnStatus::Truncated : FnStatus::Ok,
                  trunc_reason, false, &summary, ipp.reports);
    db_.addComputed(std::move(summary));

    const smt::Solver::Stats &fn_solver_stats = solver.stats();
    ins_.functions_analyzed->inc();
    ins_.paths_enumerated->inc(num_paths);
    ins_.entries_computed->inc(num_entries);
    ins_.blocks_executed->inc(tree.blocks_executed);
    ins_.state_forks->inc(tree.forks);
    ins_.subtrees_pruned->inc(tree.subtrees_pruned);
    ins_.entries_instantiated->inc(tree.entries_instantiated);
    ins_.summary_entries_compacted->inc(compaction.merged +
                                        compaction.dropped);
    if (truncated) {
        ins_.functions_truncated->inc();
        recordDiagnostic({fn.name(), FnStatus::Truncated, trunc_reason});
    }
    ins_.paths_per_function->observe(static_cast<double>(num_paths));
    ins_.symexec_seconds->observe(symexec_seconds);
    ins_.ipp_seconds->observe(ipp_seconds);
    addSolverStats(fn_solver_stats);

    if (opts_.profile_top_n > 0) {
        obs::FunctionCost cost;
        cost.name = fn.name();
        cost.paths = num_paths;
        cost.entries = num_entries;
        cost.truncated = truncated;
        cost.symexec_seconds = symexec_seconds;
        cost.ipp_seconds = ipp_seconds;
        cost.solver_seconds = fn_solver_stats.solveSeconds();
        cost.solver_queries = fn_solver_stats.queries;
        cost.blocks_executed = tree.blocks_executed;
        cost.forks = tree.forks;
        cost.subtrees_pruned = tree.subtrees_pruned;
        cost.entries_instantiated = tree.entries_instantiated;
        std::lock_guard<std::mutex> lock(stats_mutex_);
        function_costs_.push_back(std::move(cost));
    }
    return std::move(ipp.reports);
}

void
Analyzer::run()
{
    if (ran_)
        throw std::logic_error("Analyzer::run() called twice");
    ran_ = true;
    obs::ScopedTracer scoped(tracer_.get());
    obs::Span run_span("pipeline", "run");

    // Root of the budget hierarchy; unlimited (constant-false checks)
    // when no run deadline is configured.
    run_budget_ = std::make_unique<obs::Budget>(
        nullptr, opts_.run_deadline_seconds, 0);

    auto t0 = std::chrono::steady_clock::now();

    // Snapshot the declared effect domains once per run; analysis workers
    // read the copy without touching the db's lock.
    domain_table_ = db_.domains();

    // Seeds are every known summary that changes a counter in an enabled
    // domain: the predefined APIs plus summaries imported from earlier
    // separate-file passes (Section 5.3).
    std::vector<std::string> seeds =
        db_.namesWithChanges(opts_.enabled_domains);

    // The one call graph of the run: the classifier propagates seeds over
    // it and the traversal below walks its SCC condensation.
    const CallGraph cg = [this] {
        obs::Span callgraph_span("pipeline", "callgraph");
        return CallGraph(mod_);
    }();

    db_.bindDefaults(std::make_unique<ModuleSlots>(mod_));
    tracked_.resize(mod_.size());
    for (size_t k = 0; k < mod_.size(); k++)
        tracked_[k] = !mod_.skeleton(k).declaration;
    for (const std::string &name : db_.predefinedNames())
        if (int k = mod_.indexOf(name); k >= 0)
            tracked_[k] = 0;

    {
        obs::Span classify_span("pipeline", "classify");
        if (opts_.classify)
            classifier_ =
                std::make_unique<FunctionClassifier>(mod_, cg, seeds);
    }
    ins_.classify_seconds->set(secondsSince(t0));

    // Of the functions decided here, only category-2 ones have their IR
    // read (for the branch count), so a category-3 function is never
    // built.
    auto shouldAnalyze = [this](int node) {
        if (!tracked(node))
            return false;
        if (!opts_.classify)
            return true;
        switch (classifier_->categoryOf(node)) {
          case Category::RefcountChanging:
            return true;
          case Category::Affecting:
            // Selective analysis: only simple value-filtering helpers
            // (Section 5.2).
            return mod_.function(node).countCondBranches() <=
                   kMaxCat2Branches;
          case Category::Other:
            return false;
        }
        return false;
    };

    auto t1 = std::chrono::steady_clock::now();
    obs::Span analyze_span("pipeline", "analyze");

    // Resume plan of one SCC, decided when a worker takes it. An SCC is
    // *clean* when every tracked member replays from the store (Load) or
    // is quarantined, and every cross-SCC callee's SCC is clean; a dirty
    // SCC downgrades its members' Loads to Analyze, so the whole up-cone
    // of any changed/incomplete function re-executes with fresh callee
    // summaries. Quarantine stands even in a dirty cone (the default
    // summary it applies is callee-independent); a Retry re-runs by
    // definition and dirties its callers, since a successful retry
    // changes the summary its callers saw. Callee SCCs finish before
    // their callers become ready, and the scheduler's mutex hand-off
    // orders their scc_clean writes before this read. Returns one Action
    // per member, or none when not resuming.
    const bool resuming = store_ && opts_.resume;
    std::vector<char> scc_clean(resuming ? cg.numSccs() : 0, 1);
    auto planScc = [&](int scc) {
        std::vector<FunctionStore::Action> plan;
        if (!resuming)
            return plan;
        const std::vector<int> &members = cg.sccMembers(scc);
        plan.resize(members.size());
        FunctionStore::LookupContext ctx;
        ctx.function_deadline_seconds = opts_.function_deadline_seconds;
        ctx.function_solver_fuel = opts_.function_solver_fuel;
        bool clean = true;
        for (size_t i = 0; i < members.size(); i++) {
            const int member = members[i];
            for (int callee : cg.calleesOf(member)) {
                int cs = cg.sccOf(callee);
                if (cs != scc && !scc_clean[cs])
                    clean = false;
            }
            if (static_cast<size_t>(member) >= mod_.size() ||
                !tracked(member))
                continue; // declarations/specs: fixed via config_fp
            ctx.want_analyze = shouldAnalyze(member);
            plan[i] = store_->lookup(
                {nameOf(member), mod_.fingerprint(member), store_config_fp_},
                ctx, domain_table_);
            if (plan[i].plan != FunctionStore::Plan::Load &&
                plan[i].plan != FunctionStore::Plan::Quarantine)
                clean = false;
        }
        if (!clean) {
            for (auto &a : plan)
                if (a.plan == FunctionStore::Plan::Load)
                    a = FunctionStore::Action{};
        }
        scc_clean[scc] = clean ? 1 : 0;
        return plan;
    };

    // @p action is the node's resume plan; the default one (Analyze)
    // when not resuming.
    auto processNode = [&](int node, FunctionStore::Action action)
        -> std::vector<BugReport> {
        if (static_cast<size_t>(node) >= mod_.size())
            return {};   // an undeclared call target
        try {
            obs::FailpointScope fp_scope(nameOf(node));
            const bool is_tracked = tracked(node);
            if (action.plan == FunctionStore::Plan::Load) {
                // Store hit: replay the recorded outcome and skip symexec.
                // Counters are not replayed (stats describe work actually
                // done this run); diagnostics are, so truncation notes
                // survive a resume.
                ins_.store_hits->inc();
                if (action.defaulted) {
                    db_.markDefaulted(node);
                    ins_.functions_defaulted->inc();
                } else {
                    obs::FailpointSuppressScope suppress;
                    db_.addComputed(std::move(action.summary));
                }
                if (action.status != FnStatus::Ok)
                    recordDiagnostic(
                        {nameOf(node), action.status, action.reason});
                return std::move(action.reports);
            }
            if (action.plan == FunctionStore::Plan::Quarantine) {
                // Retry ladder exhausted: conservative default summary,
                // no symexec, and a provenance note saying why.
                ins_.store_quarantined->inc();
                return fallBack(node, FnStatus::Degraded, action.reason,
                                /*persist=*/false);
            }
            if (store_ && is_tracked)
                ins_.store_misses->inc();

            if (!shouldAnalyze(node)) {
                if (is_tracked) {
                    db_.markDefaulted(node);
                    ins_.functions_defaulted->inc();
                    recordToStore(node, FnStatus::Ok, "", true, nullptr,
                                  {});
                }
                return {};
            }
            // Graceful run-level degradation: once the run budget is
            // gone, remaining functions get the default summary instead
            // of being analyzed, and the run still finishes with a
            // complete report.
            if (run_budget_->expiredNow())
                return fallBack(
                    node, FnStatus::Timeout,
                    std::string("run budget: ") +
                        obs::budgetStopName(run_budget_->stopReason()));
            double deadline = opts_.function_deadline_seconds;
            uint64_t fuel = opts_.function_solver_fuel;
            if (action.plan == FunctionStore::Plan::Retry) {
                ins_.store_retries->inc();
                deadline = action.retry_deadline_seconds;
                fuel = action.retry_fuel;
            }
            return analyzeFunction(node, deadline, fuel);
        } catch (const std::exception &e) {
            // Last-resort isolation for faults outside the guarded
            // analysis path (classification, summary storage, ...).
            return fallBack(node, FnStatus::Error, e.what());
        }
    };

    // Shard-level checkpoints: each one is a durability barrier (fsync);
    // a killed run resumes from the last committed record, re-executing
    // at most the in-flight tail. One is requested every 64 processed
    // nodes and one at the end of the run, at any thread count.
    std::atomic<uint64_t> checkpoint_tag{0};
    std::atomic<size_t> processed{0};
    auto storeCheckpoint = [&]() {
        if (store_)
            store_->checkpoint(checkpoint_tag.fetch_add(1));
    };

    // One SCC scheduler for every thread count (Section 5.3). An SCC is
    // ready once every SCC it calls into is done, counted by its pending
    // cross-SCC call edges, and a worker always takes the smallest ready
    // SCC id. SCC ids are reverse-topological, so one worker walks
    // them in id order, callees first; more workers run independent SCCs
    // concurrently with no barrier between them.
    const int num_sccs = static_cast<int>(cg.numSccs());
    // mu guards everything the workers share below: the pending counts,
    // the ready queue, unfinished, failure, and reports_ with its tags.
    std::mutex mu;
    std::condition_variable cv;
    std::vector<uint32_t> pending(num_sccs, 0);
    std::priority_queue<int, std::vector<int>, std::greater<>> ready;
    for (int scc = 0; scc < num_sccs; scc++) {
        for (int member : cg.sccMembers(scc))
            for (int callee : cg.calleesOf(member))
                if (cg.sccOf(callee) != scc)
                    pending[scc]++;
        if (!pending[scc])
            ready.push(scc);
    }
    // Each report is tagged with its SCC id; after the join one stable
    // sort by tag puts them in SCC-id order, so stdout does not depend on
    // which worker finished first. With one worker they already are.
    std::vector<int> report_scc;
    int unfinished = num_sccs;
    std::exception_ptr failure;
    auto work = [&]() {
        std::unique_lock<std::mutex> lock(mu);
        while (true) {
            cv.wait(lock, [&] {
                return failure || !unfinished || !ready.empty();
            });
            if (failure || !unfinished)
                return;
            int scc = ready.top();
            ready.pop();
            lock.unlock();
            std::vector<BugReport> found;
            try {
                // Planning sits outside every per-function failpoint scope
                // and fault isolation: a lookup fault fails the run.
                std::vector<FunctionStore::Action> plan = planScc(scc);
                const std::vector<int> &members = cg.sccMembers(scc);
                for (size_t i = 0; i < members.size(); i++) {
                    for (auto &r : processNode(
                             members[i], plan.empty()
                                             ? FunctionStore::Action{}
                                             : std::move(plan[i])))
                        found.push_back(std::move(r));
                    if (store_ && ++processed % 64 == 0)
                        storeCheckpoint();
                }
            } catch (...) {
                // Stop the traversal: every other worker finishes its
                // SCC and exits, and run() rethrows the first failure.
                lock.lock();
                if (!failure)
                    failure = std::current_exception();
                cv.notify_all();
                return;
            }
            lock.lock();
            for (auto &r : found) {
                reports_.push_back(std::move(r));
                report_scc.push_back(scc);
            }
            if (!--unfinished)
                cv.notify_all();
            for (int member : cg.sccMembers(scc)) {
                for (int caller : cg.callersOf(member)) {
                    int cs = cg.sccOf(caller);
                    if (cs != scc && !--pending[cs]) {
                        ready.push(cs);
                        cv.notify_one();
                    }
                }
            }
        }
    };
    {
        // More workers than SCCs would only wait on the ready queue.
        const int workers = std::max(1, std::min(opts_.threads, num_sccs));
        std::vector<std::jthread> helpers;
        for (int w = 1; w < workers; w++) {
            helpers.emplace_back([&]() {
                obs::ScopedTracer worker_scoped(tracer_.get());
                work();
            });
        }
        work();
    }
    if (!std::is_sorted(report_scc.begin(), report_scc.end())) {
        std::vector<size_t> order(report_scc.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::ranges::stable_sort(order, {},
                                 [&](size_t k) { return report_scc[k]; });
        std::vector<BugReport> sorted;
        sorted.reserve(order.size());
        for (size_t k : order)
            sorted.push_back(std::move(reports_[k]));
        reports_ = std::move(sorted);
    }
    if (failure)
        std::rethrow_exception(failure);
    storeCheckpoint();
    ins_.analyze_seconds->set(secondsSince(t1));
    // Builds, store frames and reports are counted where they happen;
    // the registry gets their totals once, for the metrics dump.
    ins_.ir_functions_lowered->inc(mod_.lowered());
    if (store_)
        ins_.store_torn_frames->inc(store_->ioStats().torn_frames);
    // The registry's counter() is get-or-create, so dynamically named
    // per-domain counters are safe to mint here.
    for (const auto &[dom, n] : stats().reports_by_domain) {
        metrics_
            ->counter("rid_reports_" + dom + "_total",
                      "Bug reports in effect domain '" + dom + "'.")
            .inc(n);
    }
}

} // namespace rid::analysis
