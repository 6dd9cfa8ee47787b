/**
 * @file
 * Automated report triage: SMT-based refutation, confidence tiers and
 * deterministic ranking (the pipeline stage between raw IPP/balanced
 * reports and report emission).
 *
 * The paper hand-triages 355 raw reports down to 83 real bugs (RID §6).
 * This pass automates the bulk of that filtering: every report's witness
 * is re-derived at *higher abstraction precision* — the function is
 * re-lowered from its retained source with both Section 5.4 extensions
 * forced on (`x & CONST` bit tests modeled as synthetic fields,
 * caller-visible field stores tracked as path-distinguishing effects) and
 * re-executed with the prefix-sharing tree executor against the run's
 * summary database. The report's (domain, counter) witness is then
 * re-queried with full path-condition conjunctions:
 *
 *  - inconsistent reports: for each higher-precision entry pair that
 *    still changes the counter differently and is store-indistinguishable,
 *    the pass issues the *witness query* check(cons_a && cons_b) and the
 *    *negated-consistency query* check(!(cons_a && cons_b)). A Sat
 *    witness (or an Unsat negation, which proves the overlap valid) is a
 *    decisive reproduction; if no pair survives, the witness dissolved.
 *  - balanced/Unbalanced reports: the leaking entry's feasibility is
 *    re-checked; if the imbalance persists, a bounded caller-extension
 *    search over the call graph looks for a *downstream release* — a
 *    transitive caller (within a depth/node budget) that invokes an API
 *    with the opposite-signed effect in the same domain — which resolves
 *    the apparent imbalance the way the paper's hand-triage does.
 *
 * Each report is assigned a confidence tier (analysis::Tier) and all
 * reports get a deterministic 1-based rank (confirmed first, refuted
 * last). Reports are demoted, never deleted.
 *
 * Only the reported functions themselves are re-lowered: a function's
 * skeleton names its retained source and the span of its kept
 * definition (so the pass reads no base IR), and frontend::lowerSpan
 * lowers just that span at higher precision. The IR lives only while
 * its function executes, and a fault while lowering one function
 * degrades that function's reports alone.
 *
 * Determinism: the pass runs sequentially, every budget is fuel-only
 * (no wall clock), the solver consumes fuel before consulting the shared
 * query cache, and higher-precision execution is single-threaded — so
 * tiers and ranks are byte-identical across SCC thread counts and cache
 * on/off (pinned by the determinism suite).
 *
 * Tier semantics, ranking key and query shapes: docs/TRIAGE.md.
 */

#ifndef RID_TRIAGE_TRIAGE_H
#define RID_TRIAGE_TRIAGE_H

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/ipp.h"
#include "frontend/lower.h"
#include "ir/function.h"
#include "obs/budget.h"
#include "smt/query_cache.h"
#include "smt/solver.h"
#include "summary/db.h"

namespace rid::triage {

struct TriageOptions
{
    /** Solver fuel per triaged report and per higher-precision function
     *  re-execution (0 = unlimited). Fuel-only by design: a wall-clock
     *  component would make tiers timing-dependent. */
    uint64_t fuel = 0;
    /** Caller-extension search depth for Unbalanced reports
     *  (0 disables the downstream-release search). */
    int extension_depth = 2;
    /** Node cap for one extension search. */
    int max_extension_functions = 64;
    /** Structural caps of the higher-precision re-execution (mirror the
     *  analyzer's AnalyzerOptions). */
    int max_paths = 100;
    int max_subcases = 10;
    /** Base lowering options of the run; the pass forces the Section 5.4
     *  extensions on on top of these for the higher-precision module. */
    frontend::LowerOptions lower;
};

struct TriageStats
{
    /** The pass ran (gates every tier/rank consumer). */
    bool ran = false;
    size_t reports_triaged = 0;
    size_t confirmed = 0;
    size_t unverified = 0;
    size_t low_confidence = 0;
    size_t refuted = 0;
    /** Functions re-executed at higher precision (memoized: one
     *  execution serves all of a function's reports). */
    size_t hp_functions_executed = 0;
    /** Functions whose higher-precision context was unusable (missing
     *  source, truncated/budget-stopped execution, compile fault); their
     *  reports stay `unverified`. */
    size_t hp_functions_incomplete = 0;
    /** Retained units whose source was re-read for a higher-precision
     *  lowering: one per distinct unit that defines a re-executed
     *  function (a lowering that threw still counts). */
    size_t hp_units_lowered = 0;
    size_t extension_searches = 0;
    size_t downstream_releases_found = 0;
    /** analysis.triage.refute failpoint hits absorbed (tier demoted to
     *  unverified, bystanders untouched). */
    size_t faults = 0;
    /** Reports whose per-report fuel budget expired mid-decision. */
    size_t budget_stops = 0;
    /** Solver counters aggregated over every triage solver; the
     *  cache_hits/cache_misses pair is the triage side of the cross-pass
     *  query-cache sharing metric. */
    smt::Solver::Stats solver;
    double seconds = 0;
};

/**
 * The triage pass. Construct once per run with the run's module, summary
 * database (computed summaries included), retained (name, source) pairs
 * — one per ir::Module::commit, in commit order, so a skeleton's unit
 * indexes them — and the shared solver-verdict cache (null when the
 * cache is off), then run() over the run's reports: tiers are stamped,
 * deciding refutation queries are appended to each report's evidence,
 * and the report vector is re-ordered by rank.
 */
class TriagePass
{
  public:
    TriagePass(const ir::Module &mod, const summary::SummaryDb &db,
               const std::vector<std::pair<std::string, std::string>> &sources,
               std::shared_ptr<smt::QueryCache> cache,
               TriageOptions opts = {});

    /** Triage every report in place (tier + evidence), then sort by rank
     *  and stamp 1-based ranks. Never throws: injected faults and budget
     *  expiry demote the affected report to `unverified`. */
    void run(std::vector<analysis::BugReport> &reports);

    const TriageStats &stats() const { return stats_; }

  private:
    /** Memoized higher-precision execution of one function. */
    struct HpExec
    {
        std::vector<summary::SummaryEntry> entries;
        /** Execution covered every path within caps and fuel; only then
         *  may a missing witness refute. */
        bool complete = false;
        std::string note;
    };

    struct Verdict
    {
        analysis::Tier tier = analysis::Tier::Unverified;
        std::vector<smt::QueryInfo> evidence;
    };

    void triageOne(analysis::BugReport &report);
    const HpExec &hpExecFor(const std::string &function);
    std::unique_ptr<ir::Function> lowerHp(const std::string &function);
    Verdict checkInconsistent(const analysis::BugReport &report,
                              const HpExec &hp, smt::Solver &solver,
                              const obs::Budget &budget);
    Verdict checkUnbalanced(const analysis::BugReport &report,
                            const HpExec &hp, smt::Solver &solver,
                            const obs::Budget &budget);
    bool findDownstreamRelease(const analysis::BugReport &report);
    smt::Solver makeSolver(const obs::Budget *budget) const;

    const ir::Module &mod_;
    const summary::SummaryDb &db_;
    const std::vector<std::pair<std::string, std::string>> &sources_;
    std::shared_ptr<smt::QueryCache> cache_;
    TriageOptions opts_;
    TriageStats stats_;

    /** Units whose retained source has been re-read (hp_units_lowered). */
    std::set<uint32_t> units_read_;
    std::map<std::string, HpExec> hp_cache_;
    std::unique_ptr<analysis::CallGraph> callgraph_;
};

} // namespace rid::triage

#endif // RID_TRIAGE_TRIAGE_H
