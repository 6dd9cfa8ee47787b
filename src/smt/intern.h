/**
 * @file
 * Hash-consing (interning) infrastructure for the smt layer.
 *
 * Expression and formula nodes are immutable trees, and every node is
 * built through a process-wide intern pool, so
 *
 *  - syntactically equal trees are the same node, and structural
 *    equality is pointer identity,
 *  - every tree carries a stable 64-bit *fingerprint* computed once at
 *    construction, usable as a cache key across threads and runs.
 *
 * Fingerprints are deliberately independent of std::hash: they mix the
 * node's kind, payload bytes and child fingerprints with fixed 64-bit
 * constants, so the same formula text fingerprints identically on every
 * run and platform. A fingerprint collision between structurally distinct
 * trees is possible (64 bits) but harmless for correctness: the pool
 * compares a candidate's payload and children before returning a node.
 *
 * Nodes are immortal: the pool never frees one, so a handle is a plain
 * node pointer with no reference count. The pool is process-wide rather
 * than per analysis run because specs, the summary database and exported
 * summaries hold terms beyond one run. RID's terms are few (hundreds of
 * distinct nodes on the benchmark corpora) and reused millions of times.
 */

#ifndef RID_SMT_INTERN_H
#define RID_SMT_INTERN_H

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rid::smt {

/** @name Fingerprint mixing primitives */
/** @{ */

/** Finalizer from splitmix64; good avalanche for single words. */
inline uint64_t
fpMix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Fold @p v into running fingerprint @p h (order-sensitive). */
inline uint64_t
fpCombine(uint64_t h, uint64_t v)
{
    return fpMix64(h ^ (v + 0x2545f4914f6cdd1dULL + (h << 6) + (h >> 2)));
}

/** FNV-1a over a byte string; stable across runs. */
inline uint64_t
fpBytes(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Fold a sequence of fingerprints into @p h, length-prefixed so that
 * e.g. {a,b} + {} and {a} + {b} key differently. The workhorse of
 * multi-part cache keys (summary/inst_cache.h).
 */
template <typename It, typename Fp>
inline uint64_t
fpRange(uint64_t h, It first, It last, Fp fingerprintOf)
{
    uint64_t n = 0;
    for (It it = first; it != last; ++it, ++n)
        h = fpCombine(h, fingerprintOf(*it));
    return fpCombine(h, n);
}

/** @} */

/** Counters exposed by one intern table (all monotonic). */
struct InternStats
{
    uint64_t hits = 0;    ///< constructions that found an existing node
    uint64_t misses = 0;  ///< constructions that allocated a new node
    size_t entries = 0;   ///< nodes in the pool
    size_t bytes = 0;     ///< pool footprint: nodes, their payloads, index

    InternStats &operator+=(const InternStats &o)
    {
        hits += o.hits;
        misses += o.misses;
        entries += o.entries;
        bytes += o.bytes;
        return *this;
    }
};

/**
 * Sharded, append-only intern pool for immutable nodes of type Node.
 *
 * A factory describes the node it wants as a stack candidate of some
 * type Cand carrying the candidate's `fingerprint`; intern() returns the
 * pooled node matching it and allocates one only on a miss. Node must
 * provide `uint64_t fingerprint`, `bool matches(const Cand &) const`
 * (shallow: children are pooled first, so comparing child pointers
 * suffices), a constructor from Cand and `size_t payloadBytes() const`
 * (heap bytes the node owns, for InternStats::bytes).
 *
 * Nodes are never freed and never move, so a node pointer stays valid
 * for the rest of the process. Each shard, guarded by its own mutex,
 * indexes its nodes in an open-addressing table of node pointers kept
 * at most half full.
 */
template <typename Node>
class InternTable
{
  public:
    template <typename Cand>
    const Node *
    intern(const Cand &cand)
    {
        Shard &shard = shards_[shardOf(cand.fingerprint)];
        std::lock_guard<std::mutex> lock(shard.mutex);
        size_t mask = shard.index.size() - 1;
        size_t i = cand.fingerprint & mask;
        for (; shard.index[i]; i = (i + 1) & mask) {
            const Node *n = shard.index[i];
            if (n->fingerprint == cand.fingerprint && n->matches(cand)) {
                shard.hits++;
                return n;
            }
        }
        const Node *n = &shard.nodes.emplace_back(cand);
        shard.bytes += sizeof(Node) + n->payloadBytes();
        shard.index[i] = n;
        if (shard.nodes.size() * 2 > shard.index.size())
            shard.grow();
        return n;
    }

    InternStats
    stats() const
    {
        InternStats total;
        for (const Shard &s : shards_) {
            std::lock_guard<std::mutex> lock(s.mutex);
            total.hits += s.hits;
            total.misses += s.nodes.size();
            total.entries += s.nodes.size();
            total.bytes += s.bytes + s.index.size() * sizeof(const Node *);
        }
        return total;
    }

  private:
    static constexpr size_t kShards = 32;

    struct Shard
    {
        mutable std::mutex mutex;
        std::deque<Node> nodes;     ///< the pool; elements never move
        /** Open-addressing index into nodes; null marks a free slot. */
        std::vector<const Node *> index = std::vector<const Node *>(64);
        uint64_t hits = 0;
        size_t bytes = 0;           ///< nodes plus their payloads

        void
        grow()
        {
            std::vector<const Node *> old(index.size() * 2);
            old.swap(index);
            size_t mask = index.size() - 1;
            for (const Node *n : old) {
                if (!n)
                    continue;
                size_t i = n->fingerprint & mask;
                while (index[i])
                    i = (i + 1) & mask;
                index[i] = n;
            }
        }
    };

    static size_t
    shardOf(uint64_t fp)
    {
        // The index probes from the low bits; shard selection uses the
        // high bits so both stay well distributed.
        return (fp >> 57) & (kShards - 1);
    }

    Shard shards_[kShards];
};

/** Stats of the process-wide expression intern table (see expr.cc). */
InternStats exprInternStats();

/** Stats of the process-wide formula intern table (see formula.cc). */
InternStats formulaInternStats();

/** Combined expression + formula interning stats. */
InternStats totalInternStats();

} // namespace rid::smt

#endif // RID_SMT_INTERN_H
