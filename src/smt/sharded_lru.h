/**
 * @file
 * A bounded LRU map sharded for concurrent use: the one implementation
 * under both memo caches of a run, solver verdicts (smt/query_cache.h)
 * and callee instantiations (summary/inst_cache.h).
 *
 * Key provides `uint64_t fingerprint() const` and
 * `bool equals(const Key &) const`. Entries are indexed by fingerprint
 * and verified with equals(), so a 64-bit collision degrades to a miss,
 * never to another key's value; inserting over a colliding entry
 * replaces it. Sixteen shards, selected by fingerprint bits
 * [kShardShift, kShardShift + 4), each hold their own mutex, LRU list,
 * index and counters, so threads touching different keys rarely
 * contend. Caches sharing fingerprints pick disjoint bit ranges, clear
 * of the intern tables' shard selector (high bits) and of the index's
 * own hashing of the full value.
 */

#ifndef RID_SMT_SHARDED_LRU_H
#define RID_SMT_SHARDED_LRU_H

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace rid::smt {

/** Counters of one ShardedLru, summed over its shards. */
struct LruStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /** Fingerprint matched but the verified key differed (treated as a
     *  miss). */
    uint64_t collisions = 0;
    size_t entries = 0;

    double
    hitRate() const
    {
        uint64_t lookups = hits + misses;
        return lookups ? static_cast<double>(hits) / lookups : 0.0;
    }
};

template <typename Key, typename Value, unsigned kShardShift>
class ShardedLru
{
  public:
    /** At most @p capacity entries, rounded up to whole shards. */
    explicit ShardedLru(size_t capacity)
        : shard_capacity_(capacity ? (capacity + kShards - 1) / kShards
                                   : 1)
    {}

    /** The value stored for @p key, or nullopt. Promotes it to MRU. */
    std::optional<Value>
    lookup(const Key &key)
    {
        const uint64_t fp = key.fingerprint();
        Shard &shard = shards_[(fp >> kShardShift) & (kShards - 1)];
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.index.find(fp);
        if (it == shard.index.end() || !it->second->key.equals(key)) {
            if (it != shard.index.end())
                bump(shard.collisions);
            bump(shard.misses);
            return std::nullopt;
        }
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        bump(shard.hits);
        return it->second->value;
    }

    /** Store @p value for @p key as MRU, evicting the shard's LRU entry
     *  when full. An entry with the same fingerprint is overwritten. */
    void
    insert(const Key &key, Value value)
    {
        const uint64_t fp = key.fingerprint();
        Shard &shard = shards_[(fp >> kShardShift) & (kShards - 1)];
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.index.find(fp);
        if (it != shard.index.end()) {
            it->second->key = key;
            it->second->value = std::move(value);
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            return;
        }
        shard.lru.push_front(Entry{fp, key, std::move(value)});
        shard.index[fp] = shard.lru.begin();
        bump(shard.insertions);
        if (shard.lru.size() > shard_capacity_) {
            shard.index.erase(shard.lru.back().fp);
            shard.lru.pop_back();
            bump(shard.evictions);
        }
        shard.entries.store(shard.lru.size(), std::memory_order_relaxed);
    }

    /** Sums the shards' counters without taking their locks, so a
     *  reader never waits on (or deadlocks against) a lookup; the
     *  metrics exposition reads it, also from the exit-flush handler. */
    LruStats
    stats() const
    {
        constexpr auto relaxed = std::memory_order_relaxed;
        LruStats total;
        for (const Shard &s : shards_) {
            total.hits += s.hits.load(relaxed);
            total.misses += s.misses.load(relaxed);
            total.insertions += s.insertions.load(relaxed);
            total.evictions += s.evictions.load(relaxed);
            total.collisions += s.collisions.load(relaxed);
            total.entries += s.entries.load(relaxed);
        }
        return total;
    }

    size_t capacity() const { return shard_capacity_ * kShards; }

  private:
    static constexpr size_t kShards = 16;

    struct Entry
    {
        uint64_t fp;
        Key key;  // verifies fingerprint hits
        Value value;
    };

    struct Shard
    {
        std::mutex mutex;
        std::list<Entry> lru;  // front = most recently used
        std::unordered_map<uint64_t, typename std::list<Entry>::iterator>
            index;
        // Written under the mutex, read by stats() without it.
        std::atomic<uint64_t> hits{0};
        std::atomic<uint64_t> misses{0};
        std::atomic<uint64_t> insertions{0};
        std::atomic<uint64_t> evictions{0};
        std::atomic<uint64_t> collisions{0};
        std::atomic<size_t> entries{0};  // lru.size()
    };

    static void
    bump(std::atomic<uint64_t> &counter)
    {
        counter.fetch_add(1, std::memory_order_relaxed);
    }

    const size_t shard_capacity_;
    Shard shards_[kShards];
};

} // namespace rid::smt

#endif // RID_SMT_SHARDED_LRU_H
