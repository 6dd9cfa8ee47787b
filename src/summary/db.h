/**
 * @file
 * Thread-safe database of function summaries.
 *
 * Predefined (API specification) summaries take precedence over computed
 * ones and are never overwritten; computed summaries are inserted as the
 * bottom-up traversal completes each function (Section 4.2). A function
 * the analysis skips gets the default summary as a one-byte mark on its
 * slot (see DefaultSlots); the summary itself is built the first time
 * find() asks for it. Summaries can be saved to and loaded from disk for
 * the separate-compilation workflow of Section 5.3.
 */

#ifndef RID_SUMMARY_DB_H
#define RID_SUMMARY_DB_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "summary/domain.h"
#include "summary/summary.h"

namespace rid::summary {

/**
 * The functions a SummaryDb can give the default summary without storing
 * one, numbered by slot. The analyzer numbers them by call-graph node;
 * injecting the numbering keeps the summary layer free of the IR.
 */
class DefaultSlots
{
  public:
    virtual ~DefaultSlots() = default;
    virtual size_t size() const = 0;
    /** Slot of function @p fn, or -1 when it has none. */
    virtual int slotOf(const std::string &fn) const = 0;
    virtual const std::string &nameOf(int slot) const = 0;
    virtual bool returnsValue(int slot) const = 0;
};

class SummaryDb
{
  public:
    SummaryDb() = default;

    /** Register an effect domain (idempotent for identical policies).
     *  @return false if the name is already declared with a different
     *  policy (the declaration is then ignored). */
    bool declareDomain(const DomainInfo &info);

    /** Snapshot of the declared effect domains. */
    DomainTable domains() const;

    /** Register an API specification summary (wins over computed ones). */
    void addPredefined(FunctionSummary s);

    /** Store a computed summary; no-op if a predefined one exists. */
    void addComputed(FunctionSummary s);

    /**
     * Number default marks by @p slots. A db binds once: a second call
     * throws std::logic_error. Not thread-safe against markDefaulted();
     * the analyzer binds before its workers start.
     */
    void bindDefaults(std::unique_ptr<const DefaultSlots> slots);

    /**
     * Give the function of @p slot the default summary, replacing any
     * summary it has: one byte, no lock, unless a stored summary must be
     * replaced. Thread-safe for distinct slots.
     */
    void markDefaulted(int slot);

    /**
     * Look up a summary; predefined beats computed. A function marked
     * defaulted has its summary built on the first lookup, once, at a
     * stable address. A function with neither is absent (null).
     */
    const FunctionSummary *find(const std::string &fn) const;

    bool hasPredefined(const std::string &fn) const;

    /** Names of all functions with predefined summaries. */
    std::vector<std::string> predefinedNames() const;

    /** Names of all known summaries (predefined or computed/imported)
     *  whose entries change a counter — the classifier's seed set. */
    std::vector<std::string> namesWithChanges() const;

    /** As namesWithChanges(), but only effects in @p enabled_domains
     *  count (empty = all domains). */
    std::vector<std::string>
    namesWithChanges(const std::vector<std::string> &enabled_domains) const;

    /** Default summaries built from marks so far. */
    size_t defaultsMaterialized() const;

    /**
     * Serialize all computed summaries, defaults included, name-sorted,
     * in the spec format understood by loadSpecFile() (predefined ones
     * are configuration, not results, and are not saved). Sorted output
     * makes the export byte-identical across runs and thread counts.
     */
    std::string saveComputed() const;

  private:
    /** Bits of one slot's mark byte. */
    enum : uint8_t {
        kDefaulted = 1, ///< default summary, not built yet
        kStored = 2,    ///< computed_ holds this slot's summary
    };

    /** Build the default summary of marked @p slot into computed_.
     *  Caller holds the unique lock. */
    void materializeLocked(int slot) const;

    /** Slot of @p fn under the current binding, or -1. */
    int slotOf(const std::string &fn) const;

    mutable std::shared_mutex mutex_;
    DomainTable domains_;
    std::unordered_map<std::string, FunctionSummary> predefined_;
    /** Computed, imported and built default summaries. A marked slot
     *  (kDefaulted) never has an entry here; building its summary is
     *  the only change find() makes. */
    mutable std::unordered_map<std::string, FunctionSummary> computed_;
    std::unique_ptr<const DefaultSlots> slots_;
    /** One mark byte per slot of slots_, as many as it had when bound. */
    std::unique_ptr<std::atomic<uint8_t>[]> marks_;
    size_t num_marks_ = 0;
    mutable size_t materialized_ = 0;
};

} // namespace rid::summary

#endif // RID_SUMMARY_DB_H
