/**
 * @file
 * Copy-on-write map for symbolic execution state.
 *
 * The prefix-sharing executor forks its value environment at every
 * branch; a plain std::map copy would make a fork O(bindings) and undo
 * most of the benefit of sharing prefixes. CowMap instead keeps an
 * owned "dirty" overlay plus a chain of immutable frozen layers shared
 * between forks: fork() freezes the overlay (O(1) pointer moves) and
 * both sides keep reading the shared chain until they write.
 *
 * Lookup walks dirty -> newest frozen -> ... -> oldest frozen and the
 * first hit wins, so a later binding of the same key shadows earlier
 * ones without ever touching the shared layers. Keys are never erased
 * (the symbolic value map only rebinds), which keeps shadowing
 * sufficient. Deep chains from long paths are compacted on fork once
 * they pass a depth threshold, bounding lookup cost.
 */

#ifndef RID_ANALYSIS_COW_H
#define RID_ANALYSIS_COW_H

#include <functional>
#include <map>
#include <memory>
#include <utility>

namespace rid::analysis {

template <class K, class V, class Less = std::less<K>>
class CowMap
{
  public:
    /** Frozen-layer chain length at which fork() flattens the map. */
    static constexpr int kCompactDepth = 16;

    CowMap() = default;

    /** Bind (or rebind) @p key. Only ever touches the owned overlay. */
    void
    set(const K &key, V value)
    {
        dirty_[key] = std::move(value);
    }

    /** @return the newest binding of @p key, or nullptr. */
    const V *
    lookup(const K &key) const
    {
        auto it = dirty_.find(key);
        if (it != dirty_.end())
            return &it->second;
        for (const Layer *l = frozen_.get(); l; l = l->parent.get()) {
            auto fit = l->entries.find(key);
            if (fit != l->entries.end())
                return &fit->second;
        }
        return nullptr;
    }

    /**
     * Prepare this map for O(1) copying: move the dirty overlay into a
     * new frozen layer shared with every subsequent copy. Call once on
     * the parent before taking fork copies.
     */
    void
    freeze()
    {
        if (!dirty_.empty()) {
            auto layer = std::make_shared<Layer>();
            layer->entries = std::move(dirty_);
            layer->parent = std::move(frozen_);
            layer->depth = layer->parent ? layer->parent->depth + 1 : 1;
            dirty_.clear();
            frozen_ = std::move(layer);
        }
        if (frozen_ && frozen_->depth >= kCompactDepth)
            compact();
    }

    /** Number of live (visible) bindings; linear, for tests. */
    size_t
    size() const
    {
        return flattened().size();
    }

    /** Chain depth below the overlay; for tests and tuning. */
    int
    depth() const
    {
        return frozen_ ? frozen_->depth : 0;
    }

    /** Visible bindings as a plain map (newest binding per key). */
    std::map<K, V, Less>
    flattened() const
    {
        std::map<K, V, Less> out = dirty_;
        for (const Layer *l = frozen_.get(); l; l = l->parent.get())
            for (const auto &[k, v] : l->entries)
                out.emplace(k, v);  // keeps the newer binding
        return out;
    }

  private:
    struct Layer
    {
        std::map<K, V, Less> entries;
        std::shared_ptr<const Layer> parent;
        int depth = 1;
    };

    void
    compact()
    {
        auto layer = std::make_shared<Layer>();
        layer->entries = flattened();
        frozen_ = std::move(layer);
    }

    std::map<K, V, Less> dirty_;
    std::shared_ptr<const Layer> frozen_;
};

} // namespace rid::analysis

#endif // RID_ANALYSIS_COW_H
