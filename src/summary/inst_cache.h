/**
 * @file
 * Interned callee-summary instantiations.
 *
 * Profiling shows `summary::instantiate` dominating symbolic execution
 * on wrapper-heavy corpora: every state reaching a call site re-runs the
 * formal→actual substitution over the callee entry's cons, changes and
 * stores, even though thousands of states share the same callee, the
 * same actual shapes and the same result slot. The result of one
 * instantiation is fully determined by
 *
 *   (callee summary fingerprint, entry index, actual expressions,
 *    result slot expression, whether the call site consumes the result)
 *
 * — all of which are stable interned fingerprints — so the finished
 * instantiation can be hash-consed exactly like expressions and
 * formulas are (smt/intern.h). Wrappers then instantiate once per
 * *shape*, not once per path.
 *
 * Concurrency mirrors smt::QueryCache: fingerprint-sharded LRU shards,
 * one mutex each, shared by every SCC-level worker of a run. Hits verify the full key (fingerprints AND the actual/result
 * expressions structurally) before use, so a 64-bit collision degrades
 * to a miss, never a wrong instantiation. The cache is semantically
 * invisible: with it on or off the executor produces byte-identical
 * entries — pinned by the determinism differential suite.
 */

#ifndef RID_SUMMARY_INST_CACHE_H
#define RID_SUMMARY_INST_CACHE_H

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "smt/formula.h"
#include "summary/summary.h"

namespace rid::summary {

/**
 * One instantiated callee entry, post result binding, as a call site
 * consumes it: the constraint to conjoin, the caller-keyed counter
 * deltas, the caller-visible stores and the expression standing for the
 * call's value (empty when the callee is void and the site discards the
 * result).
 */
struct CallInstantiation
{
    smt::Formula cons;
    ChangeMap changes;
    StoreSet stores;
    smt::Expr result;
};

class InstCache
{
  public:
    struct Options
    {
        /** Max cached instantiations across all shards. */
        size_t capacity = 1 << 16;
    };

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        /** Key fingerprint matched but the verified key differed
         *  (treated as a miss). */
        uint64_t collisions = 0;
        size_t entries = 0;

        double
        hitRate() const
        {
            uint64_t lookups = hits + misses;
            return lookups ? static_cast<double>(hits) / lookups : 0.0;
        }
    };

    /** Full lookup key; kept by the cache for collision verification. */
    struct Key
    {
        /** FunctionSummary::fingerprint of the callee. */
        uint64_t summary_fp = 0;
        /** Index of the instantiated entry in the callee summary. */
        size_t entry_index = 0;
        /** Caller-side expressions of the actual arguments. */
        std::vector<smt::Expr> actuals;
        /** The call site's result slot (the `c<b>_<i>_<occ>` temp). */
        smt::Expr slot;
        /** The call site binds a destination variable. */
        bool wants_result = false;

        uint64_t fingerprint() const;
        bool equals(const Key &o) const;
    };

    InstCache() : InstCache(Options()) {}
    explicit InstCache(Options opts);

    /** Cached instantiation for @p key, or nullopt. Promotes to MRU. */
    std::optional<CallInstantiation> lookup(const Key &key);

    /** Record the instantiation for @p key, evicting the shard's LRU
     *  entry if full. */
    void insert(const Key &key, const CallInstantiation &inst);

    /** Aggregate counters across shards. */
    Stats stats() const;

    size_t capacity() const { return shard_capacity_ * kShards; }

  private:
    static constexpr size_t kShards = 16;

    struct Entry
    {
        uint64_t fp;
        Key key;
        CallInstantiation inst;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::list<Entry> lru;  // front = most recently used
        std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        uint64_t collisions = 0;
    };

    static size_t
    shardOf(uint64_t fp)
    {
        // Bit range disjoint from the query cache's selector and from
        // the unordered_map's own hashing of the full fingerprint.
        return (fp >> 37) & (kShards - 1);
    }

    size_t shard_capacity_;
    Shard shards_[kShards];
};

} // namespace rid::summary

#endif // RID_SUMMARY_INST_CACHE_H
