/**
 * @file
 * Satisfiability solver for RID's constraint language.
 *
 * This replaces Z3 in the paper's prototype. It decides satisfiability of
 * boolean combinations of linear integer arithmetic literals in two layers:
 *
 *  1. A branch enumerator walks the formula in negation normal form,
 *     accumulating conjunctions of normalized literals (disjunctions and
 *     disequalities branch).
 *  2. A theory core decides each conjunction by equality substitution and
 *     Fourier-Motzkin elimination with gcd tightening. Eliminations where
 *     one of the combined coefficients is +/-1 are exact over the integers
 *     (all constraints RID generates are of this form); inexact
 *     eliminations fall back to a bounded model search and may report
 *     Unknown.
 *
 * Unknown results are mapped to "satisfiable" by isSat(), which is the
 * conservative direction for RID: treating an undecided pair of path
 * constraints as overlapping can create a false report but never masks a
 * real inconsistency.
 */

#ifndef RID_SMT_SOLVER_H
#define RID_SMT_SOLVER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "smt/cond_chain.h"
#include "smt/formula.h"
#include "smt/linear.h"

namespace rid::obs {
class Budget;
class Histogram;
}

namespace rid::smt {

class QueryCache;

enum class SatResult : uint8_t { Sat, Unsat, Unknown };

const char *satResultName(SatResult r);

/**
 * Provenance snapshot of the most recent check()/checkChain() call:
 * which formula was decided (by stable fingerprint), how, and what it
 * cost. Consumed by the IPP phase to attach per-report solver evidence
 * (obs/provenance.h) without re-deriving the query.
 */
struct QueryInfo
{
    /** Formula::fingerprint() of the decided formula (0 for True). */
    uint64_t fingerprint = 0;
    SatResult result = SatResult::Unknown;
    /** Answered from the attached QueryCache. */
    bool cache_hit = false;
    /** Trivial True/False short-circuit (no fuel, no cache). */
    bool trivial = false;
    /** Solver fuel consumed by this query (1 for every non-trivial
     *  check, including budget-stopped ones; 0 for trivial). */
    uint64_t fuel = 0;
};

/**
 * Stateless satisfiability checker (thread-compatible: distinct Solver
 * instances may run concurrently; a single instance accumulates stats and
 * must not be shared without synchronization).
 */
class Solver
{
  public:
    struct Options
    {
        /** Max disjunction/disequality branches explored per query. */
        int max_branches = 4096;
        /** Open one obs::Span per non-trivial check() against the
         *  ambient tracer (noisy; for deep trace drill-downs). */
        bool trace_queries = false;
        /** Pass label for cross-pass attribution in the attached
         *  QueryCache (0 = main analysis, 1 = triage). Does not change
         *  cache keys or verdicts — verdicts are shared across passes —
         *  only which hits count as cross-pass. */
        uint8_t cache_pass = 0;
    };

    struct Stats
    {
        uint64_t queries = 0;
        uint64_t theory_checks = 0;
        uint64_t branches = 0;
        uint64_t unknowns = 0;
        /** Queries answered by the attached QueryCache. */
        uint64_t cache_hits = 0;
        /** Non-trivial queries that missed the cache and were solved. */
        uint64_t cache_misses = 0;
        /** Wall time spent inside non-trivial check() calls (cache
         *  lookups included) — the per-function solver-cost signal the
         *  analysis profile attributes. */
        uint64_t solve_ns = 0;
        /** Queries answered Unknown because the attached Budget was
         *  exhausted (deadline passed or fuel ran out). */
        uint64_t budget_stops = 0;

        double solveSeconds() const { return solve_ns * 1e-9; }

        Stats &
        operator+=(const Stats &o)
        {
            queries += o.queries;
            theory_checks += o.theory_checks;
            branches += o.branches;
            unknowns += o.unknowns;
            cache_hits += o.cache_hits;
            cache_misses += o.cache_misses;
            solve_ns += o.solve_ns;
            budget_stops += o.budget_stops;
            return *this;
        }
    };

    Solver() = default;
    explicit Solver(Options opts) : opts_(opts) {}

    /**
     * Attach a (typically shared) verdict cache consulted by check().
     * Pass nullptr to detach. Sharing one cache between solvers with
     * different Options is sound for isSat() consumers but may convert
     * an Unknown into the other solver's Sat/Unsat or vice versa; see
     * smt/query_cache.h.
     */
    void attachCache(std::shared_ptr<QueryCache> cache)
    {
        cache_ = std::move(cache);
    }

    const std::shared_ptr<QueryCache> &cache() const { return cache_; }

    /**
     * Attach a (typically registry-owned, shared) latency histogram;
     * every non-trivial check() observes its wall time into it. The
     * histogram must outlive the solver. Null detaches.
     */
    void attachLatencyHistogram(obs::Histogram *hist)
    {
        latency_hist_ = hist;
    }

    /**
     * Attach a cooperative resource budget (obs/budget.h). Every
     * non-trivial check() first consumes one unit of solver fuel and
     * tests the deadline; an exhausted budget makes check() answer
     * Unknown immediately (counted in Stats::budget_stops) without
     * touching the shared cache, so budgeted runs never pollute verdicts
     * other functions may reuse. The budget must outlive the solver.
     * Null detaches.
     */
    void attachBudget(const obs::Budget *budget) { budget_ = budget; }

    const obs::Budget *budget() const { return budget_; }

    /** Decide satisfiability of @p f. */
    SatResult check(const Formula &f);

    /** check() with Unknown treated as satisfiable. */
    bool isSat(const Formula &f);

    /**
     * Decide satisfiability of an incrementally-built conjunction
     * without re-normalizing its prefix (smt/cond_chain.h). Verdict,
     * statistics, budget accounting and cache key are identical to
     * check(chain.formula()) — the chain only skips the per-query NNF
     * walk and literal normalization of the shared prefix.
     */
    SatResult checkChain(const CondChain &chain);

    /** checkChain() with Unknown treated as satisfiable. */
    bool isSatChain(const CondChain &chain);

    /**
     * Decide satisfiability of a conjunction of normalized literals.
     * Exposed for direct testing of the theory core.
     */
    SatResult checkConj(const std::vector<LinLit> &lits);

    const Stats &stats() const { return stats_; }

    /** Provenance of the most recent check()/checkChain() call. Valid
     *  until the next query on this solver instance. */
    const QueryInfo &lastQuery() const { return last_query_; }

  private:
    /**
     * The one query path of check() and checkChain(): the trivial
     * answers, the failpoint, the budget gate, then the span, timing,
     * cache lookup and insert, latency histogram and lastQuery() around
     * @p solve, which decides @p f on a cache miss.
     */
    template <typename Solve>
    SatResult query(const Formula &f, Solve &&solve);
    SatResult enumerate(const Formula &f, std::vector<LinLit> &acc,
                        VarSpace &space, int &branch_budget);
    SatResult theoryCheck(std::vector<LinLit> lits);
    SatResult searchFallback(const std::vector<LinLit> &lits);

    Options opts_;
    Stats stats_;
    QueryInfo last_query_;
    std::shared_ptr<QueryCache> cache_;
    obs::Histogram *latency_hist_ = nullptr;
    const obs::Budget *budget_ = nullptr;
};

} // namespace rid::smt

#endif // RID_SMT_SOLVER_H
