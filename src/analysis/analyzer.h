/**
 * @file
 * Whole-module analysis driver.
 *
 * Runs the full RID pipeline on an IR module: call-graph construction,
 * function classification, and a bottom-up traversal that executes each
 * function's paths symbolically in one prefix-sharing CFG-tree walk,
 * checks inconsistent path pairs and stores the resulting function
 * summaries. Category-2 functions are only
 * analyzed when simple enough (conditional-branch budget); category-3
 * functions are skipped entirely. One SCC scheduler serves every thread
 * count: an SCC becomes ready once every SCC it calls into is done, the
 * smallest ready SCC id goes first, and reports come out in SCC-id order
 * whatever the number of workers.
 */

#ifndef RID_ANALYSIS_ANALYZER_H
#define RID_ANALYSIS_ANALYZER_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/classifier.h"
#include "analysis/ipp.h"
#include "analysis/summary_check.h"
#include "analysis/symexec.h"
#include "ir/function.h"
#include "obs/budget.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "smt/query_cache.h"
#include "summary/db.h"
#include "summary/inst_cache.h"

namespace rid::analysis {

/**
 * How one function's analysis ended. Worse statuses shadow better ones:
 * Error > Degraded > Timeout > Truncated > Ok.
 */
enum class FnStatus : uint8_t {
    Ok = 0,     ///< fully analyzed
    Truncated,  ///< structural caps (max_paths/max_subcases) cut paths;
                ///< result is deterministic and still merged
    Timeout,    ///< budget expired; partial results discarded, default
                ///< summary stored
    Degraded,   ///< a fault during analysis was isolated to this function;
                ///< default summary stored
    Error,      ///< a fault outside the guarded analysis path; default
                ///< summary stored where possible
};

const char *fnStatusName(FnStatus s);

/** Structured outcome record for one function whose analysis did not end
 *  plainly Ok; carried through RunResult and statsJson(). */
struct FunctionDiagnostic
{
    std::string function;
    FnStatus status = FnStatus::Ok;
    /** Human-readable cause: exception message, budget stop reason or cap
     *  description. */
    std::string reason;
};

/**
 * Durable analysis store hook (implemented by store::AnalysisStore).
 *
 * The Analyzer records every processed function's outcome through this
 * interface and, on resume, consults it before running symexec: a
 * function whose key — (body fingerprint, spec/domain-config
 * fingerprint) — matches a committed record replays its summary,
 * reports and diagnostic from the store and skips execution entirely.
 * The interface lives here (not in src/store/) so the analysis library
 * stays storage-agnostic; the store library depends on analysis, never
 * the other way around. On-disk format: docs/STORE.md.
 */
class FunctionStore
{
  public:
    /** Store key of one function under one configuration. */
    struct Key
    {
        std::string function;
        /** ir::Function::fingerprint() — stable over the printed IR. */
        uint64_t body_fp = 0;
        /** store::configFingerprint() over specs, domains and every
         *  output-affecting AnalyzerOption. */
        uint64_t config_fp = 0;
    };

    /** What the analyzer should do with one function on resume. */
    enum class Plan : uint8_t {
        Analyze,    ///< no usable record: run symexec normally
        Load,       ///< replay summary/reports/diagnostic, skip symexec
        Retry,      ///< previously failed: re-run under a reduced budget
        Quarantine, ///< retry ladder exhausted: default summary, no symexec
    };

    struct Action
    {
        Plan plan = Plan::Analyze;
        /** Load: the stored summary (unset when defaulted). */
        summary::FunctionSummary summary;
        /** Load: the stored reports, fully round-tripped. */
        std::vector<BugReport> reports;
        /** Load: the original status/reason, replayed as a diagnostic. */
        FnStatus status = FnStatus::Ok;
        /** Load: the recorded reason. Quarantine: the provenance note
         *  of the Degraded diagnostic. */
        std::string reason;
        /** Load: the function was classification-skipped (category 3)
         *  in the recorded run; replay stores the default summary. */
        bool defaulted = false;
        /** Retry: backoff-laddered budget (0 = keep the run's). */
        double retry_deadline_seconds = 0;
        uint64_t retry_fuel = 0;
    };

    /** Run-side context a lookup decision needs. */
    struct LookupContext
    {
        /** Current classification decision for the function. */
        bool want_analyze = true;
        /** The run's per-function budget (the retry ladder halves it). */
        double function_deadline_seconds = 0;
        uint64_t function_solver_fuel = 0;
    };

    /** Recovery/append accounting surfaced into AnalyzerStats. */
    struct IoStats
    {
        size_t loaded_records = 0;
        size_t torn_frames = 0;
        size_t failed_writes = 0;
        uint64_t bytes_appended = 0;
    };

    virtual ~FunctionStore() = default;

    /** The spec/domain/options fingerprint this store was opened with. */
    virtual uint64_t configFingerprint() const = 0;

    /** Decide what to do with @p key on resume. Thread-safe. */
    virtual Action lookup(const Key &key, const LookupContext &ctx,
                          const summary::DomainTable &domains) = 0;

    /**
     * Persist one function's outcome. Must not throw: storage faults are
     * absorbed and counted (IoStats::failed_writes) so a failing disk
     * degrades durability, never analysis results.
     * @return bytes appended (0 when the write failed)
     */
    virtual size_t record(const Key &key, FnStatus status,
                          const std::string &reason, bool defaulted,
                          const summary::FunctionSummary *summary,
                          const std::vector<BugReport> &reports) = 0;

    /** Commit a shard-level checkpoint: append a checkpoint frame and
     *  flush everything before it to stable storage. A store may skip a
     *  checkpoint that would commit nothing new. Must not throw. */
    virtual void checkpoint(uint64_t tag) = 0;

    virtual IoStats ioStats() const = 0;
};

/** Conditional-branch budget for category-2 functions: one is analyzed
 *  only when it has at most this many conditional branches (paper
 *  Section 5.2: 3). */
inline constexpr int kMaxCat2Branches = 3;

struct AnalyzerOptions
{
    /** Path cap per function (paper configuration: 100). */
    int max_paths = 100;
    /** Subcase cap per path (paper configuration: 10). */
    int max_subcases = 10;
    /** Classify first and skip category-3 functions (Section 5.2).
     *  Disabled: every defined function is fully analyzed. */
    bool classify = true;
    /** Workers of the SCC scheduler: the calling thread plus
     *  threads - 1 helpers, capped at the number of SCCs (values below
     *  1 mean 1). Reports, summaries and store records do not depend
     *  on it. */
    int threads = 1;
    /** Compact each computed summary before it enters the database:
     *  merge entries indistinguishable at every call boundary (identical
     *  changes/stores/ret) into one disjunctive entry and drop entries
     *  with unsatisfiable constraints. Runs after report generation and
     *  the summary check, so reports and diagnostics are byte-identical
     *  with the pass on or off — pinned by the determinism suite. */
    bool compact_summaries = true;
    /** Effect domains to check (summary/domain.h); empty = all declared
     *  domains. Effects of unlisted domains are stripped from computed
     *  summaries and their seed specs are ignored by the classifier, so
     *  enabling only `ref` reproduces the pre-domain run exactly. */
    std::vector<std::string> enabled_domains;
    /** Optional stronger-property check run on every computed summary
     *  (Sections 2.1 / 4.5); its reports are appended to the IPP ones.
     *  See makeEscapeRuleCheck(). */
    SummaryCheck summary_check;
    /** Chrome-trace output path (empty = tracing off). Rid::run()
     *  writes the file; the Analyzer only enables span recording. */
    std::string trace_path;
    /** Prometheus metrics dump path (empty = none); written by
     *  Rid::run() from the run's metrics registry. */
    std::string metrics_path;
    /** Provenance journal path (empty = none). Rid::run() renders every
     *  report's ProvenanceRecord (obs/provenance.h) as a JSONL journal
     *  there; the Analyzer itself only collects the evidence, so the
     *  symbolic-execution phase pays no journal cost. */
    std::string provenance_path;
    /** Rows kept in the post-run analysis profile (0 = no profile). */
    int profile_top_n = 10;
    /** Record one span per solver query (noisy; off by default). */
    bool trace_solver_queries = false;
    /** Injected tracer (tests / embedding). When null, the Analyzer
     *  creates one iff trace_path is set. */
    std::shared_ptr<obs::Tracer> tracer;
    /** Wall-clock allowance for the whole run (0 = unlimited). Functions
     *  reached after expiry get the default summary and a Timeout
     *  diagnostic; the run itself always completes. */
    double run_deadline_seconds = 0;
    /** Wall-clock allowance per function (0 = unlimited). On expiry the
     *  function's partial, timing-dependent results are discarded and it
     *  is degraded to the default summary (status Timeout). */
    double function_deadline_seconds = 0;
    /** Solver fuel per function: max non-trivial solver queries
     *  (0 = unlimited). Exhaustion degrades like a deadline. */
    uint64_t function_solver_fuel = 0;
    /** Fault-injection spec (obs/failpoint.h grammar, e.g.
     *  "smt.intern@foo=always,frontend.parse=prob@0.1"). Non-empty arms
     *  the process-wide registry in the constructor; empty leaves the
     *  registry untouched. */
    std::string failpoints;
    /** Seed for prob@P failpoint decisions (deterministic per seed). */
    uint64_t failpoint_seed = 0;
    /** Directory of the durable analysis store (empty = no store).
     *  Consumed by Rid::run(), which opens a store::AnalysisStore there
     *  and injects it as `store`; the Analyzer itself only talks to the
     *  FunctionStore interface. */
    std::string store_path;
    /** Resume from the store: functions whose (body, config) key holds a
     *  committed record replay it and skip symexec; changed or
     *  incomplete functions — and their SCC up-cone — re-execute, and
     *  previously failed ones climb the supervisor's retry ladder. */
    bool resume = false;
    /** The injected store (null = no persistence). */
    std::shared_ptr<FunctionStore> store;
    /** Run the automated triage pass (src/triage/) after analysis:
     *  every report is re-queried at higher abstraction precision and
     *  stamped with a confidence tier and a deterministic rank. Consumed
     *  by Rid::run() (the pass needs the retained source text); the
     *  Analyzer itself ignores it, but the toggle participates in the
     *  store config fingerprint so --resume never replays across a
     *  flip. */
    bool triage = false;
    /** Solver fuel per triaged report and per higher-precision function
     *  re-execution (0 = unlimited). Fuel-only — no wall-clock component
     *  — so triage verdicts stay deterministic. */
    uint64_t triage_fuel = 0;
    /** Caller-extension search depth bound for balanced/Unbalanced
     *  reports (0 disables the downstream-release search). */
    int triage_extension_depth = 2;
    /** Node cap for one extension search. */
    int triage_max_extension_functions = 64;
};

/**
 * A view of one run's statistics, assembled by Analyzer::stats() from
 * where each number is counted: the metrics registry, the classifier,
 * the module's build count, the two shared caches, the store's I/O
 * accounting and the report list.
 */
struct AnalyzerStats
{
    ClassifierStats categories;
    size_t functions_analyzed = 0;
    size_t functions_defaulted = 0;
    /** Module functions whose IR was built on first read so far
     *  (rid_ir_functions_lowered_total). In a default run these are the
     *  category-1 and category-2 definitions; category 3 never is. */
    size_t functions_lowered = 0;
    size_t paths_enumerated = 0;
    size_t entries_computed = 0;
    /** Basic blocks stepped during symbolic execution; each CFG-tree
     *  edge counts once, however many paths share it. */
    size_t blocks_executed = 0;
    /** State-set forks at conditional branches. */
    size_t state_forks = 0;
    /** CFG subtrees skipped because their path condition was
     *  unsatisfiable (pruning enabled only). */
    size_t subtrees_pruned = 0;
    size_t functions_truncated = 0;
    /** Functions degraded to the default summary by budget expiry. */
    size_t functions_timeout = 0;
    /** Functions whose analysis fault was isolated (default summary). */
    size_t functions_degraded = 0;
    /** Functions that faulted outside the guarded analysis path. */
    size_t functions_error = 0;
    double classify_seconds = 0;
    double analyze_seconds = 0;
    /** Wall time of the symbolic-execution phase, summed per function
     *  (parallel sections count once, not per worker). */
    double symexec_seconds = 0;
    /** Wall time of the IPP check-and-merge phase, summed per function. */
    double ipp_seconds = 0;
    /** Callee summary entries instantiated from scratch during symbolic
     *  execution (the instantiation cache's misses). */
    size_t entries_instantiated = 0;
    /** Summary entries removed by bottom-up compaction (merged into a
     *  disjunctive sibling or dropped as unsatisfiable). */
    size_t summary_entries_compacted = 0;
    /** Solver counters aggregated over every solver of the run. */
    smt::Solver::Stats solver;
    /** Shared query-cache counters, read from the cache itself: they
     *  include every later user of Analyzer::queryCache(), such as the
     *  triage pass. */
    smt::QueryCache::Stats query_cache;
    /** Shared instantiation-cache counters. */
    summary::InstCache::Stats inst_cache;
    /** Reports per effect domain (name-ordered; domains with zero
     *  reports are omitted). */
    std::map<std::string, size_t> reports_by_domain;
    /** Durable-store accounting (zero when no store is configured). */
    struct StoreStats
    {
        /** A store was attached to the run. */
        bool active = false;
        /** Functions replayed from the store (symexec skipped). */
        size_t hits = 0;
        /** Resume lookups that had to re-execute (changed key, dirty
         *  SCC cone, incomplete record, or a supervised retry). */
        size_t misses = 0;
        /** Previously failed functions re-run under a laddered budget. */
        size_t retried = 0;
        /** Functions quarantined after exhausting the retry ladder. */
        size_t quarantined = 0;
        /** Frames dropped by the recovery scan (CRC mismatch / torn
         *  tail / undecodable record). */
        size_t torn_frames = 0;
        size_t loaded_records = 0;
        size_t failed_writes = 0;
        uint64_t bytes_appended = 0;

        double hitRate() const
        {
            size_t total = hits + misses;
            return total ? static_cast<double>(hits) /
                               static_cast<double>(total)
                         : 0.0;
        }
    } store;
};

class Analyzer
{
  public:
    /**
     * @param mod IR module to analyze (must outlive the Analyzer)
     * @param db  summary database pre-loaded with the refcount API
     *            specifications; computed summaries are added to it and
     *            skipped functions are marked defaulted in it, numbered
     *            by @p mod, which must outlive the db's lookups
     */
    Analyzer(const ir::Module &mod, summary::SummaryDb &db,
             AnalyzerOptions opts = {});

    /** Run the full pipeline. An Analyzer runs once: a second call
     *  throws std::logic_error. */
    void run();

    const std::vector<BugReport> &reports() const { return reports_; }

    /** The run's statistics, read on each call from where they are
     *  counted (see AnalyzerStats); call after run(). */
    AnalyzerStats stats() const;

    /** The solver-verdict cache shared by every solver of the run
     *  (never null); later passes may share it too. */
    const std::shared_ptr<smt::QueryCache> &queryCache() const
    {
        return query_cache_;
    }

    /** The run's span tracer (null when tracing is off). */
    const std::shared_ptr<obs::Tracer> &tracer() const { return tracer_; }

    /** The run's metrics registry (never null). */
    const std::shared_ptr<obs::MetricsRegistry> &metrics() const
    {
        return metrics_;
    }

    /** Per-function cost records (empty when profile_top_n == 0).
     *  Deterministically ordered by function name. */
    std::vector<obs::FunctionCost> functionCosts() const;

    /** Diagnostics for every function whose status is not Ok,
     *  deterministically ordered by function name. */
    std::vector<FunctionDiagnostic> diagnostics() const;

  private:
    /** Registry-backed instruments, resolved once in the constructor so
     *  hot paths skip the registry's name lookup. */
    struct Instruments
    {
        obs::Counter *functions_analyzed;
        obs::Counter *functions_defaulted;
        obs::Counter *ir_functions_lowered;
        obs::Counter *functions_truncated;
        obs::Counter *functions_timeout;
        obs::Counter *functions_degraded;
        obs::Counter *functions_error;
        obs::Counter *solver_budget_stops;
        obs::Counter *paths_enumerated;
        obs::Counter *entries_computed;
        obs::Counter *blocks_executed;
        obs::Counter *state_forks;
        obs::Counter *subtrees_pruned;
        obs::Counter *entries_instantiated;
        obs::Counter *summary_entries_compacted;
        obs::Counter *solver_queries;
        obs::Counter *solver_theory_checks;
        obs::Counter *solver_branches;
        obs::Counter *solver_unknowns;
        obs::Counter *solver_cache_hits;
        obs::Counter *solver_cache_misses;
        obs::Counter *solver_solve_ns;
        obs::Gauge *classify_seconds;
        obs::Gauge *analyze_seconds;
        obs::Histogram *paths_per_function;
        obs::Histogram *symexec_seconds;
        obs::Histogram *ipp_seconds;
        obs::Histogram *solver_query_seconds;
        /** Store instruments; null when no store is configured. */
        obs::Counter *store_hits = nullptr;
        obs::Counter *store_misses = nullptr;
        obs::Counter *store_retries = nullptr;
        obs::Counter *store_quarantined = nullptr;
        obs::Counter *store_torn_frames = nullptr;
        obs::Histogram *store_record_bytes = nullptr;
    };

    /** Analyze the function of call-graph node @p node and store its
     *  summary; returns its reports. Never throws: faults and budget
     *  expiry degrade the function to the default summary and a
     *  diagnostic. @p deadline_seconds / @p fuel form the function budget
     *  (normally the run's options; the supervisor's retry ladder passes
     *  reduced values). */
    std::vector<BugReport> analyzeFunction(int node, double deadline_seconds,
                                           uint64_t fuel);

    /** The fault-susceptible body of analyzeFunction. */
    std::vector<BugReport> analyzeFunctionGuarded(int node,
                                                  const obs::Budget &budget);

    /** Whether node @p node's function gets a summary of its own:
     *  defined, and not a predefined API. */
    bool tracked(int node) const { return tracked_[node] != 0; }

    /** The one fallback path: give node @p node's function the default
     *  summary (tracked functions only), count it under @p status
     *  (Timeout, Degraded or Error), record the diagnostic and, when
     *  @p persist, the store record. Returns the (empty) report list. */
    std::vector<BugReport> fallBack(int node, FnStatus status,
                                    const std::string &reason,
                                    bool persist = true);

    void recordDiagnostic(FunctionDiagnostic d);

    /** A solver wired to the run's cache, latency histogram, query
     *  tracing option and (optionally) a budget. */
    smt::Solver makeSolver(const obs::Budget *budget = nullptr) const;

    /** Add one (sub)run's solver counters to the registry. */
    void addSolverStats(const smt::Solver::Stats &s);

    /** Name of module function @p node (node k < mod_.size() is module
     *  function k, see CallGraph), read from its skeleton. */
    const std::string &nameOf(int node) const;

    /** Persist node @p node's outcome to the store (no-op without one).
     *  Never throws; a storage fault is the store's to absorb. */
    void recordToStore(int node, FnStatus status, const std::string &reason,
                       bool defaulted,
                       const summary::FunctionSummary *summary,
                       const std::vector<BugReport> &reports);

    const ir::Module &mod_;
    summary::SummaryDb &db_;
    AnalyzerOptions opts_;
    /** Per-run snapshot of the db's declared effect domains. */
    summary::DomainTable domain_table_;
    std::vector<BugReport> reports_;
    /** run() has started; a second call throws. */
    bool ran_ = false;
    std::unique_ptr<FunctionClassifier> classifier_;
    const std::shared_ptr<smt::QueryCache> query_cache_ =
        std::make_shared<smt::QueryCache>();
    const std::shared_ptr<summary::InstCache> inst_cache_ =
        std::make_shared<summary::InstCache>();
    std::shared_ptr<obs::Tracer> tracer_;
    std::shared_ptr<obs::MetricsRegistry> metrics_;
    Instruments ins_;
    std::vector<obs::FunctionCost> function_costs_;
    std::vector<FunctionDiagnostic> diagnostics_;
    std::unique_ptr<obs::Budget> run_budget_;
    std::mutex stats_mutex_;
    /** tracked() per module function, filled at the start of run(). */
    std::vector<char> tracked_;
    /** Durable store (null = persistence off) and its config key part. */
    std::shared_ptr<FunctionStore> store_;
    uint64_t store_config_fp_ = 0;
};

} // namespace rid::analysis

#endif // RID_ANALYSIS_ANALYZER_H
