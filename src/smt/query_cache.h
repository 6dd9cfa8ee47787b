/**
 * @file
 * Memoized satisfiability-query cache.
 *
 * RID's analysis re-solves the same formulas many times: the pairwise IPP
 * check restarts its O(n^2) scan after every merge/drop, and symbolic
 * execution re-checks path-prefix feasibility as constraints accumulate.
 * This cache maps a formula's structural fingerprint (smt/intern.h) to
 * its SatResult so syntactically repeated queries cost a hash lookup.
 *
 * Soundness. The solver is deterministic for a given Options, and cached
 * verdicts are verified against the stored formula with equals() before
 * use, so a hit always returns what re-solving the identical formula
 * would have. When solvers with *different* budgets share a cache the
 * only possible divergence is Unknown vs Sat (Unsat proofs are
 * budget-independent), which isSat() maps to the same conservative
 * answer; see DESIGN.md "Solver query cache".
 *
 * Concurrency. The verdicts live in a ShardedLru (smt/sharded_lru.h):
 * sixteen fingerprint-selected shards, each with its own mutex, so
 * worker threads touching different formulas rarely contend. One
 * instance is shared by every Solver the Analyzer creates, across
 * SCC-level workers.
 */

#ifndef RID_SMT_QUERY_CACHE_H
#define RID_SMT_QUERY_CACHE_H

#include <atomic>
#include <cstdint>
#include <optional>

#include "smt/formula.h"
#include "smt/sharded_lru.h"

namespace rid::smt {

enum class SatResult : uint8_t;  // full definition in smt/solver.h

class QueryCache
{
  public:
    struct Options
    {
        /** Max cached verdicts across all shards. */
        size_t capacity = 1 << 16;
    };

    struct Stats : LruStats
    {
        /** Hits on an entry inserted by a *different* pass (the pass
         *  label of Solver::Options::cache_pass): how much the IPP /
         *  balanced / triage phases actually share verdicts. */
        uint64_t cross_pass_hits = 0;

        /** Fraction of hits that crossed a pass boundary. */
        double
        crossPassRate() const
        {
            return hits ? static_cast<double>(cross_pass_hits) / hits
                        : 0.0;
        }
    };

    QueryCache() : QueryCache(Options()) {}
    explicit QueryCache(Options opts) : lru_(opts.capacity) {}

    /**
     * Cached verdict for @p f, or nullopt. Promotes the entry to MRU.
     * @p pass is an attribution label only (Solver::Options::cache_pass):
     * keying is pass-agnostic — the solver is deterministic for a given
     * Options, so every pass may consume every verdict — but a hit on an
     * entry another pass inserted is counted as a cross-pass hit.
     */
    std::optional<SatResult> lookup(const Formula &f, uint8_t pass = 0);

    /** Record the verdict for @p f, evicting the shard's LRU entry if
     *  full. Re-inserting an existing formula refreshes it (the inserting
     *  pass label is updated too). */
    void insert(const Formula &f, SatResult result, uint8_t pass = 0);

    /** Aggregate counters across shards. */
    Stats stats() const;

    size_t capacity() const { return lru_.capacity(); }

  private:
    struct Verdict
    {
        SatResult result;
        uint8_t pass;  // cache_pass label of the inserting solver
    };

    ShardedLru<Formula, Verdict, 43> lru_;
    std::atomic<uint64_t> cross_pass_hits_{0};
};

} // namespace rid::smt

#endif // RID_SMT_QUERY_CACHE_H
