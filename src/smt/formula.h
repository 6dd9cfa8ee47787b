/**
 * @file
 * Boolean formulas over comparison literals.
 *
 * Path constraints in RID are conjunctions of comparison literals; merging
 * summary entries (Section 4.3 of the paper) introduces disjunction, so the
 * formula language supports arbitrary and/or/not nesting over literals.
 *
 * Like expressions, formula nodes live in a process-wide, append-only
 * intern pool (smt/intern.h): structurally equal formulas are one node,
 * so equality is pointer identity, and every formula carries a stable
 * 64-bit fingerprint, which is what the solver query cache keys on. A
 * Formula is a plain node pointer; nodes are never freed.
 */

#ifndef RID_SMT_FORMULA_H
#define RID_SMT_FORMULA_H

#include <string>
#include <vector>

#include "smt/expr.h"

namespace rid::smt {

enum class FormulaKind : uint8_t {
    True,
    False,
    Lit,  ///< a boolean-valued Expr (Cmp or BoolConst)
    And,
    Or,
    Not,
};

class FormulaNode;

/**
 * Value-semantic handle to an immutable formula tree.
 *
 * Factories perform cheap local simplification (unit and(), constant
 * folding of literal BoolConsts) so trivially-true constraints collapse to
 * True and stay readable when printed.
 */
class Formula
{
  public:
    /** Default: the trivially true formula. */
    Formula();

    static Formula top();
    static Formula bottom();
    /** A single comparison literal; BoolConst literals fold to top/bottom. */
    static Formula lit(Expr cond);
    static Formula conj(std::vector<Formula> parts);
    static Formula disj(std::vector<Formula> parts);
    static Formula negation(Formula f);

    /** Convenience: this AND other. */
    Formula land(const Formula &other) const;
    /** Convenience: this OR other. */
    Formula lor(const Formula &other) const;

    FormulaKind kind() const;
    bool isTrue() const { return kind() == FormulaKind::True; }
    bool isFalse() const { return kind() == FormulaKind::False; }
    /** Literal expression of a Lit node. */
    const Expr &literal() const;
    /** Children of And/Or/Not nodes. */
    const std::vector<Formula> &children() const;

    /**
     * All comparison literals appearing anywhere in the formula, in
     * discovery order, deduplicated structurally.
     */
    std::vector<Expr> literals() const;

    /** True if any literal mentions a Local or Temp atom. */
    bool mentionsLocalState() const;

    /** Replace expression @p from by @p to inside every literal. */
    Formula substitute(const Expr &from, const Expr &to) const;

    /**
     * Drop every literal that satisfies @p pred, replacing it by True (in
     * positive positions) — the over-approximating projection used when
     * discarding conditions on local variables (Section 3.3.3). The
     * formula is first pushed to negation normal form so that dropping is
     * always a sound weakening.
     */
    Formula dropLiteralsIf(const std::function<bool(const Expr &)> &pred)
        const;

    /** Negation normal form: Not pushed onto literals and eliminated. */
    Formula nnf() const;

    /** Structural equality (no semantic canonicalization): every
     *  formula is interned, so this is pointer identity. */
    bool equals(const Formula &other) const { return node_ == other.node_; }

    size_t hash() const;

    /**
     * Stable structural 64-bit fingerprint (see Expr::fingerprint);
     * suitable as a solver-query cache key when a hit is verified with
     * equals(). The True formula fingerprints to 0.
     */
    uint64_t fingerprint() const;

    /** Render using the paper's notation with "&&", "||", "!". */
    std::string str() const;

  private:
    explicit Formula(const FormulaNode *node) : node_(node) {}

    /** conj() (@p kind And) or disj() (@p kind Or). */
    static Formula junction(FormulaKind kind, std::vector<Formula> parts);

    Formula nnfImpl(bool negate) const;

    /** Null for True, so top() needs no pool lookup. */
    const FormulaNode *node_ = nullptr;
};

} // namespace rid::smt

#endif // RID_SMT_FORMULA_H
