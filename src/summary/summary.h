/**
 * @file
 * Function summaries (Section 4.3 of the paper).
 *
 * A summary entry is the triple (cons, changes, return): under constraint
 * `cons` (a formula over argument atoms and the return-value atom), the
 * function changes each refcount in `changes` by the recorded delta and
 * returns `return`. A function summary is a set of entries whose
 * constraints are pairwise unsatisfiable together (consistent entries with
 * overlapping constraints and equal changes are merged with disjunction).
 */

#ifndef RID_SUMMARY_SUMMARY_H
#define RID_SUMMARY_SUMMARY_H

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "smt/formula.h"
#include "summary/domain.h"

namespace rid::summary {

/**
 * Key of one tracked effect: the counter expression (e.g. "[dev].pm")
 * tagged with the effect domain it belongs to. The implicit Expr
 * conversion keeps the pre-domain call sites (`changes[Expr::field(...)]`)
 * meaning "the builtin ref domain", so refcount-only code is unchanged.
 */
struct EffectKey
{
    std::string domain = kRefDomain;
    smt::Expr counter;

    EffectKey() = default;
    /*implicit*/ EffectKey(smt::Expr e) : counter(std::move(e)) {}
    EffectKey(std::string d, smt::Expr e)
        : domain(std::move(d)), counter(std::move(e))
    {}

    bool isRef() const { return domain == kRefDomain; }

    /** Rewrite the counter expression, preserving the domain tag. */
    EffectKey substitute(const smt::Expr &from, const smt::Expr &to) const
    {
        return EffectKey(domain, counter.substitute(from, to));
    }

    /** `counter.str()` for ref keys (pre-domain rendering), otherwise
     *  `domain:counter`. */
    std::string str() const
    {
        return isRef() ? counter.str() : domain + ":" + counter.str();
    }

    bool operator==(const EffectKey &o) const
    {
        return domain == o.domain && counter.equals(o.counter);
    }
    bool operator!=(const EffectKey &o) const { return !(*this == o); }
};

/** Orders by domain name first, then structurally by counter; for keys in
 *  the ref domain this coincides with the pre-domain smt::ExprLess
 *  order, keeping ref-only output byte-identical. */
struct EffectKeyLess
{
    bool operator()(const EffectKey &a, const EffectKey &b) const
    {
        if (a.domain != b.domain)
            return a.domain < b.domain;
        return a.counter.less(b.counter);
    }
};

/** Map from a tracked counter (keyed by domain + symbolic expression,
 *  e.g. "[dev].pm" in `ref`) to its net change along a path. Zero deltas
 *  are never stored. */
using ChangeMap = std::map<EffectKey, int, EffectKeyLess>;

/** Provenance attached to an entry for report rendering. */
struct EntryOrigin
{
    /** Source lines of the refcount-changing call sites on the path. */
    std::vector<int> change_lines;
    /** Source line of the return statement ending the path. */
    int return_line = 0;
    /** Index of the enumerated path this entry came from (-1: merged). */
    int path_index = -1;
    /** Callee-summary instantiation chain: names of the callees whose
     *  summaries were instantiated along the path, in execution order.
     *  Never printed or serialized — provenance only (obs/provenance.h). */
    std::vector<std::string> callees;
};

/** Set of caller-visible field-store effects (extension, Section 5.4). */
using StoreSet = std::set<smt::Expr, smt::ExprLess>;

/** One summary entry: (cons, changes, return). */
struct SummaryEntry
{
    smt::Formula cons;
    ChangeMap changes;
    /** Return expression; empty for void functions, the atom [0] when the
     *  value is unconstrained by this entry. */
    smt::Expr ret;
    /** Caller-visible structures written on this path. Only populated
     *  under the model_field_stores extension; paths with different
     *  store sets are runtime-distinguishable and never form an IPP. */
    StoreSet stores;
    EntryOrigin origin;

    /** Drop zero deltas (changes[rc] is 0 by default — Section 4.4). */
    void normalizeChanges();

    /** True if both entries change every refcount identically. */
    static bool sameChanges(const SummaryEntry &a, const SummaryEntry &b);

    /** True if both entries write the same caller-visible structures. */
    static bool sameStores(const SummaryEntry &a, const SummaryEntry &b);

    /** Counters on which the two entries differ, with both deltas. */
    static std::vector<std::pair<EffectKey, std::pair<int, int>>>
    changedDifferently(const SummaryEntry &a, const SummaryEntry &b);

    /**
     * Merge a consistent overlapping pair (Section 4.3): constraint is the
     * disjunction, return is kept when equal and becomes [0] otherwise.
     */
    static SummaryEntry merge(const SummaryEntry &a, const SummaryEntry &b);

    std::string str() const;
};

/** A function summary: a set of entries plus bookkeeping flags. */
struct FunctionSummary
{
    std::string function;
    /** Formal parameter names, needed to instantiate entries at calls. */
    std::vector<std::string> params;
    /** True when the function returns a value (entries then bind [0]). */
    bool returns_value = false;
    std::vector<SummaryEntry> entries;
    /** True when the summary is the catch-all default (no changes, no
     *  constraints) used for unanalyzed functions. */
    bool is_default = false;
    /** True when the summary was given as an API specification rather
     *  than computed from a body. */
    bool is_predefined = false;
    /** True when path or subcase limits truncated the analysis and a
     *  default entry was appended (Section 5.2). */
    bool is_truncated = false;
    /** Content fingerprint over name, signature, flags and entries;
     *  stamped by SummaryDb when the summary is added (0 before). The
     *  instantiation cache (summary/inst_cache.h) keys on it, so any
     *  edit to the summary — including compaction — changes every
     *  derived cache key. */
    uint64_t fingerprint = 0;

    /** True if any entry changes any counter, in any domain. */
    bool hasChanges() const;

    /** As hasChanges(), but counting only effects whose domain is in
     *  @p domains (empty = all domains). */
    bool hasChangesIn(const std::vector<std::string> &domains) const;

    /** The default summary: single entry, no changes, return [0]. */
    static FunctionSummary defaultFor(const std::string &fn,
                                      bool returns_value);

    std::string str() const;
};

/**
 * Instantiate a summary entry at a call site (Algorithm 1): formal
 * argument atoms are replaced by actual-argument expressions and the
 * return atom [0] by @p result.
 *
 * @param entry   callee summary entry
 * @param formals callee formal parameter names
 * @param actuals caller-side symbolic expressions of the actual arguments
 *                (size may differ from formals for variadic/mismatched
 *                declarations; extra formals map to fresh unconstrained
 *                atoms via @p filler)
 * @param result  expression standing for the call's return value
 * @param missing_scope scope string for the unconstrained temps minted
 *                when actuals run out (typically the callee name):
 *                formal `p` becomes `missing$<scope>$p`, so the temp is
 *                interned per (callee, formal) and two callees sharing
 *                a formal name never alias. Empty keeps the legacy
 *                `missing$p` spelling.
 */
SummaryEntry instantiate(const SummaryEntry &entry,
                         const std::vector<std::string> &formals,
                         const std::vector<smt::Expr> &actuals,
                         const smt::Expr &result,
                         const std::string &missing_scope = "");

/**
 * Substitute the return atom [0] by @p result across an instantiated
 * entry's cons, changes and stores (the second half of Algorithm 1,
 * applied once the call site has decided how the return value is
 * represented). Counter keys that collapse onto each other have their
 * deltas summed and exact-zero deltas are dropped, so an entry never
 * reports a counter it does not net-change.
 */
void bindResult(SummaryEntry &entry, const smt::Expr &result);

/**
 * Stable content fingerprint of a summary: function name, parameters,
 * flags and every entry's cons/changes/stores/return. Byte-stable
 * across runs (smt/intern.h fingerprints); independent of entry origin
 * provenance.
 */
uint64_t summaryFingerprint(const FunctionSummary &s);

} // namespace rid::summary

#endif // RID_SUMMARY_SUMMARY_H
