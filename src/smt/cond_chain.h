/**
 * @file
 * Persistent, incrementally-normalized path condition.
 *
 * The prefix-sharing executor accumulates its path condition one
 * conjunct at a time and queries satisfiability at every branch. With
 * plain Formula::conj the solver re-flattens and re-normalizes the
 * whole (mostly unchanged) prefix on every query. A CondChain is the
 * same conjunction as a parent-pointer list of immutable nodes: each
 * extension normalizes only the literals the new conjunct contributes
 * — against a cumulative VarSpace snapshot — and shares everything
 * before it, so extending at a fork is O(new literals) and the chain
 * handle itself copies in O(1).
 *
 * Equivalence contract: formula() is byte-for-byte Formula::conj() of
 * the raw parts in push order (same flattening, same structural dedup,
 * same cache fingerprint), and Solver::checkChain() reproduces the
 * exact verdict, branch order and statistics of Solver::check() on
 * that formula. The incremental literal order mirrors the solver's
 * own collection order (top-level Lit children first-occurrence, in
 * flattened child order), which pins down VarSpace id assignment and
 * therefore Fourier-Motzkin tie-breaking.
 *
 * Conjuncts are tagged with an opaque source key so a re-executed
 * branch (loop unrolled once) can replace its earlier condition
 * (Figure 6).
 */

#ifndef RID_SMT_COND_CHAIN_H
#define RID_SMT_COND_CHAIN_H

#include <memory>
#include <vector>

#include "smt/formula.h"
#include "smt/linear.h"

namespace rid::smt {

class CondChain
{
  public:
    /** The empty chain: the trivially true condition. */
    CondChain() = default;

    /**
     * This condition AND @p part. True parts are dropped (exactly as
     * Formula::conj drops them); a False part latches the whole chain
     * to bottom until the part is removed again.
     *
     * @param source opaque tag for later withoutSource() replacement
     *               (the branch instruction; null for call constraints)
     */
    CondChain extended(const void *source, Formula part) const;

    /** Rebuild without every part tagged @p source. No-op (O(depth)
     *  scan, no rebuild) when the tag is absent. */
    CondChain withoutSource(const void *source) const;

    /** The conjunction as a formula — structurally identical to
     *  Formula::conj of parts() (shared fingerprint, shared solver
     *  cache key). O(1): cached per node. */
    Formula formula() const;

    /** Raw parts in push order (True parts omitted — Formula::conj
     *  drops them anyway, so the conjunction is unchanged). */
    std::vector<Formula> parts() const;

    /** Number of retained parts. */
    int depth() const;

    bool isTrue() const { return !tip_; }

    /** Latched False part present. */
    bool isFalse() const;

    /** A part had a shape outside NNF {Lit, And-of, Or}; checkChain
     *  falls back to the batch solver path. Never happens for
     *  executor-built conditions (entry constraints are NNF). */
    bool complex() const;

    /**
     * Solver-facing snapshot: the cumulative normalized literals,
     * pending (non-literal) children and VarSpace, exactly as
     * Solver::check would collect them from formula(). O(depth)
     * pointer walks plus one VarSpace copy; no re-normalization.
     */
    void materialize(std::vector<LinLit> &lits,
                     std::vector<Formula> &pendings, VarSpace &space) const;

  private:
    struct Node;

    static bool containsChild(const Node *tip, const Formula &child,
                              const std::vector<Formula> &pending_new);

    explicit CondChain(std::shared_ptr<const Node> tip)
        : tip_(std::move(tip))
    {}

    std::shared_ptr<const Node> tip_;
};

} // namespace rid::smt

#endif // RID_SMT_COND_CHAIN_H
