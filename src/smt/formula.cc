#include "smt/formula.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <sstream>

#include "smt/intern.h"

namespace rid::smt {

namespace {

/** A wanted node, described on the stack before the pool is probed. */
struct FormulaCand
{
    FormulaKind kind;
    Expr literal;
    std::span<const Formula> children;
    uint64_t fingerprint;
};

} // anonymous namespace

/** Immutable pooled node backing a Formula. */
class FormulaNode
{
  public:
    FormulaKind kind;
    Expr literal;                     // Lit
    std::vector<Formula> children;    // And / Or / Not
    uint64_t fingerprint;

    explicit FormulaNode(const FormulaCand &c)
        : kind(c.kind), literal(c.literal),
          children(c.children.begin(), c.children.end()),
          fingerprint(c.fingerprint)
    {}

    /** Literals and children are pooled first, so comparing their
     *  identities suffices. */
    bool
    matches(const FormulaCand &c) const
    {
        return kind == c.kind && literal.equals(c.literal) &&
               std::equal(children.begin(), children.end(),
                          c.children.begin(), c.children.end(),
                          [](const Formula &x, const Formula &y) {
                              return x.equals(y);
                          });
    }

    size_t
    payloadBytes() const
    {
        return children.capacity() * sizeof(Formula);
    }
};

namespace {

InternTable<FormulaNode> &
formulaInterner()
{
    // Never destroyed: terms may be read by other static destructors.
    static InternTable<FormulaNode> *table = new InternTable<FormulaNode>;
    return *table;
}

const FormulaNode *
makeNode(FormulaKind kind, Expr literal, std::span<const Formula> children)
{
    uint64_t h = fpMix64(0x466f726dULL);  // "Form" domain tag
    h = fpCombine(h, static_cast<uint64_t>(kind));
    h = fpCombine(h, literal.fingerprint());
    h = fpCombine(h, children.size());
    for (const auto &c : children)
        h = fpCombine(h, c.fingerprint());
    return formulaInterner().intern(FormulaCand{kind, literal, children, h});
}

} // anonymous namespace

// True is represented by a null node, so the ubiquitous top() formula
// is built without a pool lookup.
Formula::Formula() = default;

Formula
Formula::top()
{
    return Formula();
}

Formula
Formula::bottom()
{
    static const Formula f(makeNode(FormulaKind::False, Expr(), {}));
    return f;
}

Formula
Formula::lit(Expr cond)
{
    assert(cond.isBoolean() && "formula literals must be boolean");
    if (cond.kind() == ExprKind::BoolConst)
        return cond.boolValue() ? top() : bottom();
    // Fold comparisons between constants.
    if (cond.kind() == ExprKind::Cmp && cond.lhs().isConst() &&
        cond.rhs().isConst()) {
        return evalPred(cond.pred(), cond.lhs().intValue(),
                        cond.rhs().intValue())
                   ? top()
                   : bottom();
    }
    // Fold reflexive comparisons (x == x, x <= x, ...).
    if (cond.kind() == ExprKind::Cmp && cond.lhs().equals(cond.rhs())) {
        switch (cond.pred()) {
          case Pred::Eq:
          case Pred::Le:
          case Pred::Ge:
            return top();
          case Pred::Ne:
          case Pred::Lt:
          case Pred::Gt:
            return bottom();
        }
    }
    return Formula(makeNode(FormulaKind::Lit, cond, {}));
}

Formula
Formula::conj(std::vector<Formula> parts)
{
    return junction(FormulaKind::And, std::move(parts));
}

Formula
Formula::disj(std::vector<Formula> parts)
{
    return junction(FormulaKind::Or, std::move(parts));
}

Formula
Formula::junction(FormulaKind kind, std::vector<Formula> parts)
{
    bool is_and = kind == FormulaKind::And;
    FormulaKind absorbing = is_and ? FormulaKind::False : FormulaKind::True;
    FormulaKind unit = is_and ? FormulaKind::True : FormulaKind::False;
    // Splice the children of nested same-kind parts in their place.
    if (std::any_of(parts.begin(), parts.end(),
                    [&](const Formula &p) { return p.kind() == kind; })) {
        std::vector<Formula> flat;
        for (const Formula &p : parts) {
            if (p.kind() == kind)
                flat.insert(flat.end(), p.children().begin(),
                            p.children().end());
            else
                flat.push_back(p);
        }
        parts = std::move(flat);
    }
    // Drop units and structural duplicates in place, keeping first
    // occurrences.
    size_t kept = 0;
    for (size_t i = 0; i < parts.size(); i++) {
        Formula p = parts[i];
        if (p.kind() == absorbing)
            return is_and ? bottom() : top();
        if (p.kind() == unit ||
            std::any_of(parts.begin(), parts.begin() + kept,
                        [&](const Formula &k) { return k.equals(p); }))
            continue;
        parts[kept++] = p;
    }
    if (kept == 0)
        return is_and ? top() : bottom();
    if (kept == 1)
        return parts.front();
    return Formula(makeNode(kind, Expr(), {parts.data(), kept}));
}

Formula
Formula::negation(Formula f)
{
    switch (f.kind()) {
      case FormulaKind::True:
        return bottom();
      case FormulaKind::False:
        return top();
      case FormulaKind::Lit:
        return lit(f.literal().negated());
      case FormulaKind::Not:
        return f.children().front();
      default:
        return Formula(makeNode(FormulaKind::Not, Expr(), {&f, 1}));
    }
}

Formula
Formula::land(const Formula &other) const
{
    return conj({*this, other});
}

Formula
Formula::lor(const Formula &other) const
{
    return disj({*this, other});
}

FormulaKind
Formula::kind() const
{
    return node_ ? node_->kind : FormulaKind::True;
}

const Expr &
Formula::literal() const
{
    assert(node_ && node_->kind == FormulaKind::Lit);
    return node_->literal;
}

const std::vector<Formula> &
Formula::children() const
{
    static const std::vector<Formula> empty;
    return node_ ? node_->children : empty;
}

std::vector<Expr>
Formula::literals() const
{
    std::vector<Expr> out;
    auto consider = [&](const Expr &e) {
        for (const auto &prev : out)
            if (prev.equals(e))
                return;
        out.push_back(e);
    };
    std::function<void(const Formula &)> walk = [&](const Formula &f) {
        if (f.kind() == FormulaKind::Lit) {
            consider(f.literal());
            return;
        }
        for (const auto &c : f.children())
            walk(c);
    };
    walk(*this);
    return out;
}

bool
Formula::mentionsLocalState() const
{
    if (kind() == FormulaKind::Lit)
        return literal().mentionsLocalState();
    for (const auto &c : children())
        if (c.mentionsLocalState())
            return true;
    return false;
}

Formula
Formula::substitute(const Expr &from, const Expr &to) const
{
    switch (kind()) {
      case FormulaKind::True:
      case FormulaKind::False:
        return *this;
      case FormulaKind::Lit:
        return lit(literal().substitute(from, to));
      case FormulaKind::And: {
        std::vector<Formula> kids;
        kids.reserve(children().size());
        for (const auto &c : children())
            kids.push_back(c.substitute(from, to));
        return conj(std::move(kids));
      }
      case FormulaKind::Or: {
        std::vector<Formula> kids;
        kids.reserve(children().size());
        for (const auto &c : children())
            kids.push_back(c.substitute(from, to));
        return disj(std::move(kids));
      }
      case FormulaKind::Not:
        return negation(children().front().substitute(from, to));
    }
    return *this;
}

Formula
Formula::dropLiteralsIf(const std::function<bool(const Expr &)> &pred) const
{
    Formula n = nnf();
    std::function<Formula(const Formula &)> walk =
        [&](const Formula &f) -> Formula {
        switch (f.kind()) {
          case FormulaKind::Lit:
            return pred(f.literal()) ? top() : f;
          case FormulaKind::And: {
            std::vector<Formula> kids;
            for (const auto &c : f.children())
                kids.push_back(walk(c));
            return conj(std::move(kids));
          }
          case FormulaKind::Or: {
            std::vector<Formula> kids;
            for (const auto &c : f.children())
                kids.push_back(walk(c));
            return disj(std::move(kids));
          }
          default:
            return f;
        }
    };
    return walk(n);
}

Formula
Formula::nnf() const
{
    return nnfImpl(false);
}

Formula
Formula::nnfImpl(bool negate) const
{
    switch (kind()) {
      case FormulaKind::True:
        return negate ? bottom() : top();
      case FormulaKind::False:
        return negate ? top() : bottom();
      case FormulaKind::Lit:
        return negate ? lit(literal().negated()) : *this;
      case FormulaKind::Not:
        return children().front().nnfImpl(!negate);
      case FormulaKind::And:
      case FormulaKind::Or: {
        bool is_and = (kind() == FormulaKind::And) != negate;
        std::vector<Formula> kids;
        kids.reserve(children().size());
        for (const auto &c : children())
            kids.push_back(c.nnfImpl(negate));
        return is_and ? conj(std::move(kids)) : disj(std::move(kids));
      }
    }
    return *this;
}

size_t
Formula::hash() const
{
    return node_ ? static_cast<size_t>(node_->fingerprint) : 0;
}

uint64_t
Formula::fingerprint() const
{
    return node_ ? node_->fingerprint : 0;
}

std::string
Formula::str() const
{
    std::ostringstream os;
    std::function<void(const Formula &, int)> render =
        [&](const Formula &f, int parent_prec) {
        switch (f.kind()) {
          case FormulaKind::True:
            os << "true";
            break;
          case FormulaKind::False:
            os << "false";
            break;
          case FormulaKind::Lit:
            os << f.literal().str();
            break;
          case FormulaKind::Not:
            os << "!(";
            render(f.children().front(), 0);
            os << ")";
            break;
          case FormulaKind::And:
          case FormulaKind::Or: {
            int prec = f.kind() == FormulaKind::And ? 2 : 1;
            bool need_parens = prec < parent_prec;
            if (need_parens)
                os << "(";
            const char *sep = f.kind() == FormulaKind::And ? " && " : " || ";
            bool first = true;
            for (const auto &c : f.children()) {
                if (!first)
                    os << sep;
                first = false;
                render(c, prec);
            }
            if (need_parens)
                os << ")";
            break;
          }
        }
    };
    render(*this, 0);
    return os.str();
}

InternStats
formulaInternStats()
{
    return formulaInterner().stats();
}

} // namespace rid::smt
