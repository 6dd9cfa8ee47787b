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
 * The entries live in an smt::ShardedLru (smt/sharded_lru.h), shared
 * by every SCC-level worker of a run. Hits verify the full key
 * (fingerprints AND the actual/result expressions structurally) before
 * use, so a 64-bit collision degrades to a miss, never a wrong
 * instantiation. The cache is semantically invisible: with it on or off
 * the executor produces byte-identical entries — pinned by the
 * determinism differential suite.
 */

#ifndef RID_SUMMARY_INST_CACHE_H
#define RID_SUMMARY_INST_CACHE_H

#include <cstdint>
#include <vector>

#include "smt/formula.h"
#include "smt/sharded_lru.h"
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

/** Full lookup key of an instantiation; kept by the cache for
 *  collision verification. */
struct InstKey
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
    bool equals(const InstKey &o) const;
};

/** lookup() returns the cached instantiation for a key (promoted to
 *  MRU); insert() records one, evicting the shard's LRU entry if full. */
class InstCache : public smt::ShardedLru<InstKey, CallInstantiation, 37>
{
  public:
    struct Options
    {
        /** Max cached instantiations across all shards. */
        size_t capacity = 1 << 16;
    };

    using Key = InstKey;
    using Stats = smt::LruStats;

    InstCache() : InstCache(Options()) {}
    explicit InstCache(Options opts) : ShardedLru(opts.capacity) {}
};

} // namespace rid::summary

#endif // RID_SUMMARY_INST_CACHE_H
