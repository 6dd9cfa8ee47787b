#include "smt/solver.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>

#include "obs/budget.h"
#include "obs/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "smt/query_cache.h"

namespace rid::smt {

const char *
satResultName(SatResult r)
{
    switch (r) {
      case SatResult::Sat: return "sat";
      case SatResult::Unsat: return "unsat";
      case SatResult::Unknown: return "unknown";
    }
    return "?";
}

namespace {

/** Max constraints materialized during one FM elimination. */
constexpr long kMaxFmConstraints = 20000;
/** Node cap for the bounded model search fallback. */
constexpr int kMaxSearchNodes = 100000;
/** Half-width of the search box for unbounded variables. */
constexpr int64_t kSearchBound = 64;

/** Combine two SatResults where the caller needs *any* branch sat. */
SatResult
anySat(SatResult acc, SatResult next)
{
    if (acc == SatResult::Sat || next == SatResult::Sat)
        return SatResult::Sat;
    if (acc == SatResult::Unknown || next == SatResult::Unknown)
        return SatResult::Unknown;
    return SatResult::Unsat;
}

int64_t
gcd64(int64_t a, int64_t b)
{
    a = a < 0 ? -a : a;
    b = b < 0 ? -b : b;
    while (b) {
        int64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/** Floor division for int64. */
int64_t
floorDiv(int64_t a, int64_t b)
{
    assert(b > 0);
    int64_t q = a / b;
    if (a % b != 0 && a < 0)
        q--;
    return q;
}

/**
 * A constraint during FM elimination: expr <= 0 or expr == 0, with an
 * exactness flag that is cleared when an inexact (real-shadow) combination
 * produced it.
 */
struct FmCons
{
    LinExpr expr;
    bool is_eq = false;
    bool exact = true;
};

/**
 * gcd-tighten an inequality expr <= 0: divide coefficients by their gcd g
 * and replace the constant by floor(constant / g). Exact over integers.
 * For equalities, non-divisible constants make the constraint unsat.
 *
 * @return false if the (equality) constraint is definitely unsatisfiable.
 */
bool
tighten(FmCons &c)
{
    const auto &terms = c.expr.terms();
    if (terms.empty())
        return true;
    int64_t g = 0;
    for (const auto &[v, coeff] : terms)
        g = gcd64(g, coeff);
    if (g <= 1)
        return true;
    LinExpr out;
    for (const auto &[v, coeff] : terms)
        out.addTerm(v, coeff / g);
    int64_t k = c.expr.constant();
    if (c.is_eq) {
        if (k % g != 0)
            return false;  // sum g*(c_i/g)*x_i = -k has no integer solution
        out.addConstant(k / g);
    } else {
        // g*e + k <= 0  <=>  e <= -k/g  <=>  e <= floor(-k/g)
        out.addConstant(-floorDiv(-k, g));
    }
    c.expr = out;
    return true;
}

} // anonymous namespace

template <typename Solve>
SatResult
Solver::query(const Formula &f, Solve &&solve)
{
    stats_.queries++;
    if (f.isTrue() || f.isFalse()) {
        SatResult r = f.isTrue() ? SatResult::Sat : SatResult::Unsat;
        last_query_ = QueryInfo{f.fingerprint(), r, false, true, 0};
        return r;
    }
    obs::failpoint("smt.solver.check");
    // Budget gate before any real work *and* before the cache: a
    // budget-stopped Unknown is a property of this run's resource limits,
    // not of the formula, so it must never be inserted into (or satisfied
    // from counts of) the shared verdict cache.
    if (budget_ && (!budget_->consumeFuel() || budget_->expiredNow())) {
        stats_.budget_stops++;
        stats_.unknowns++;
        last_query_ = QueryInfo{f.fingerprint(), SatResult::Unknown,
                                false, false, 1};
        return SatResult::Unknown;
    }
    obs::Span span(opts_.trace_queries ? obs::currentTracer() : nullptr,
                   "smt", "solver-query");
    auto t0 = std::chrono::steady_clock::now();
    SatResult r;
    bool cached_hit = false;
    if (cache_) {
        if (auto cached = cache_->lookup(f, opts_.cache_pass)) {
            stats_.cache_hits++;
            cached_hit = true;
            r = *cached;
        } else {
            stats_.cache_misses++;
        }
    }
    if (!cached_hit) {
        r = solve();
        if (cache_)
            cache_->insert(f, r, opts_.cache_pass);
    }
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    stats_.solve_ns += ns;
    if (latency_hist_)
        latency_hist_->observe(ns * 1e-9);
    span.arg("result", satResultName(r));
    if (cached_hit)
        span.arg("cache", "hit");
    last_query_ = QueryInfo{f.fingerprint(), r, cached_hit, false, 1};
    return r;
}

SatResult
Solver::check(const Formula &f)
{
    return query(f, [&] {
        std::vector<LinLit> acc;
        VarSpace space;
        int budget = opts_.max_branches;
        return enumerate(f.nnf(), acc, space, budget);
    });
}

bool
Solver::isSat(const Formula &f)
{
    return check(f) != SatResult::Unsat;
}

SatResult
Solver::checkChain(const CondChain &chain)
{
    if (chain.complex()) {
        // A part outside NNF {Lit, And, Or}: the incremental literal
        // snapshot would not match the batch collection order. Never
        // produced by the executors; decided by the batch path.
        return check(chain.formula());
    }
    return query(chain.formula(), [&] {
        // The chain already holds the literals check() would collect
        // from nnf(f)'s top level, in the same order and against the
        // same VarSpace id assignment; only pending disjunctions are
        // left for the branch enumerator.
        std::vector<LinLit> acc;
        std::vector<Formula> pendings;
        VarSpace space;
        chain.materialize(acc, pendings, space);
        if (pendings.empty())
            return theoryCheck(acc);
        // conj of the pending Ors reproduces the single-pending
        // recursion / first-Or distribution of the And case.
        int budget = opts_.max_branches;
        return enumerate(Formula::conj(std::move(pendings)), acc, space,
                         budget);
    });
}

bool
Solver::isSatChain(const CondChain &chain)
{
    return checkChain(chain) != SatResult::Unsat;
}

/**
 * Depth-first enumeration of the NNF formula tree. `acc` holds the
 * literals of the current branch; disjunctions try each child in turn.
 */
SatResult
Solver::enumerate(const Formula &f, std::vector<LinLit> &acc,
                  VarSpace &space, int &branch_budget)
{
    if (branch_budget <= 0) {
        stats_.unknowns++;
        return SatResult::Unknown;
    }
    switch (f.kind()) {
      case FormulaKind::True:
        return theoryCheck(acc);
      case FormulaKind::False:
        return SatResult::Unsat;
      case FormulaKind::Lit: {
        auto lit = normalizeCmp(f.literal(), space);
        if (!lit) {
            // Literal outside LIA (e.g. comparison of two booleans);
            // treat as unconstrained. This only weakens constraints,
            // matching the paper's handling of inexpressible conditions.
            return theoryCheck(acc);
        }
        acc.push_back(*lit);
        SatResult r = theoryCheck(acc);
        acc.pop_back();
        return r;
      }
      case FormulaKind::And: {
        // Collect literals from conjunct children; nested Ors multiply.
        // Process by splitting on the first non-literal child.
        size_t saved = acc.size();
        const auto &kids = f.children();
        std::vector<const Formula *> pending;
        for (const auto &c : kids) {
            if (c.kind() == FormulaKind::Lit) {
                auto lit = normalizeCmp(c.literal(), space);
                if (lit)
                    acc.push_back(*lit);
            } else if (c.kind() == FormulaKind::False) {
                acc.resize(saved);
                return SatResult::Unsat;
            } else if (c.kind() != FormulaKind::True) {
                pending.push_back(&c);
            }
        }
        SatResult r;
        if (pending.empty()) {
            r = theoryCheck(acc);
        } else if (pending.size() == 1) {
            r = enumerate(*pending.front(), acc, space, branch_budget);
        } else {
            // More than one non-literal conjunct: distribute the first
            // disjunction over the remainder.
            const Formula *first = pending.front();
            std::vector<Formula> rest;
            for (size_t i = 1; i < pending.size(); i++)
                rest.push_back(*pending[i]);
            assert(first->kind() == FormulaKind::Or);
            r = SatResult::Unsat;
            for (const auto &alt : first->children()) {
                branch_budget--;
                stats_.branches++;
                std::vector<Formula> parts = rest;
                parts.push_back(alt);
                Formula sub = Formula::conj(std::move(parts));
                r = anySat(r, enumerate(sub, acc, space, branch_budget));
                if (r == SatResult::Sat)
                    break;
            }
        }
        acc.resize(saved);
        return r;
      }
      case FormulaKind::Or: {
        SatResult r = SatResult::Unsat;
        for (const auto &c : f.children()) {
            branch_budget--;
            stats_.branches++;
            r = anySat(r, enumerate(c, acc, space, branch_budget));
            if (r == SatResult::Sat)
                return r;
        }
        return r;
      }
      case FormulaKind::Not:
        assert(false && "formula must be in NNF");
        return SatResult::Unknown;
    }
    return SatResult::Unknown;
}

SatResult
Solver::checkConj(const std::vector<LinLit> &lits)
{
    return theoryCheck(lits);
}

/**
 * Decide a conjunction of normalized literals.
 *
 * Disequalities are split (expr <= -1 or -expr <= -1); equalities with a
 * unit-coefficient variable are eliminated by substitution; the rest goes
 * through Fourier-Motzkin with gcd tightening.
 */
SatResult
Solver::theoryCheck(std::vector<LinLit> lits)
{
    stats_.theory_checks++;

    // Split the first disequality and recurse; disequality count is tiny
    // in practice.
    for (size_t i = 0; i < lits.size(); i++) {
        if (lits[i].rel != LinRel::Ne)
            continue;
        // expr != 0  <=>  expr + 1 <= 0  or  -expr + 1 <= 0
        std::vector<LinLit> lo = lits;
        lo[i].rel = LinRel::Le;
        lo[i].expr.addConstant(1);
        SatResult r1 = theoryCheck(std::move(lo));
        if (r1 == SatResult::Sat)
            return r1;
        std::vector<LinLit> hi = lits;
        hi[i].rel = LinRel::Le;
        hi[i].expr = LinExpr().minus(hi[i].expr);
        hi[i].expr.addConstant(1);
        SatResult r2 = theoryCheck(std::move(hi));
        return anySat(r1, r2);
    }

    std::vector<FmCons> cons;
    cons.reserve(lits.size());
    for (const auto &l : lits) {
        FmCons c;
        c.expr = l.expr;
        c.is_eq = (l.rel == LinRel::Eq);
        if (!tighten(c))
            return SatResult::Unsat;
        cons.push_back(std::move(c));
    }

    bool all_exact = true;

    // Equality elimination by substitution where a variable has a unit
    // coefficient (always the case for RID-generated constraints).
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < cons.size(); i++) {
            if (!cons[i].is_eq)
                continue;
            const auto &terms = cons[i].expr.terms();
            if (terms.empty()) {
                if (cons[i].expr.constant() != 0)
                    return SatResult::Unsat;
                cons.erase(cons.begin() + i);
                changed = true;
                break;
            }
            // Find a unit-coefficient variable to substitute away.
            VarId var = -1;
            int64_t coeff = 0;
            for (const auto &[v, c] : terms) {
                if (c == 1 || c == -1) {
                    var = v;
                    coeff = c;
                    break;
                }
            }
            if (var < 0)
                continue;  // handled by FM below (marked inexact there)
            // coeff*var + e = 0  =>  var = -e/coeff; substitute
            // k*var + f  ->  f - k*(e'/1) with e' = coeff*e.
            LinExpr rhs;  // expression equal to var
            for (const auto &[v, c] : terms)
                if (v != var)
                    rhs.addTerm(v, -c * coeff);
            rhs.addConstant(-cons[i].expr.constant() * coeff);

            FmCons eq = cons[i];
            cons.erase(cons.begin() + i);
            for (auto &other : cons) {
                auto it = other.expr.terms().find(var);
                if (it == other.expr.terms().end())
                    continue;
                int64_t k = it->second;
                LinExpr updated = other.expr;
                updated.addTerm(var, -k);
                for (const auto &[v, c] : rhs.terms())
                    updated.addTerm(v, k * c);
                updated.addConstant(k * rhs.constant());
                other.expr = std::move(updated);
                if (!tighten(other))
                    return SatResult::Unsat;
            }
            changed = true;
            break;
        }
    }

    // Remaining equalities (non-unit coefficients only) become inequality
    // pairs; FM over them is not integer-exact.
    std::vector<FmCons> ineqs;
    for (auto &c : cons) {
        if (c.is_eq) {
            FmCons le = c;
            le.is_eq = false;
            FmCons ge;
            ge.expr = LinExpr().minus(c.expr);
            ge.exact = c.exact;
            all_exact = false;
            ineqs.push_back(std::move(le));
            ineqs.push_back(std::move(ge));
        } else {
            ineqs.push_back(std::move(c));
        }
    }

    // Fourier-Motzkin elimination.
    while (true) {
        // Check trivial constraints; collect variables.
        std::map<VarId, std::pair<int, int>> occurrence;  // lower,upper
        for (auto &c : ineqs) {
            if (c.expr.terms().empty()) {
                if (c.expr.constant() > 0)
                    return SatResult::Unsat;
            }
            for (const auto &[v, k] : c.expr.terms()) {
                auto &occ = occurrence[v];
                // coeff > 0: upper bound on v; coeff < 0: lower bound
                if (k > 0)
                    occ.second++;
                else
                    occ.first++;
            }
        }
        if (occurrence.empty())
            break;

        // Pick the variable minimizing the number of combinations.
        VarId best = occurrence.begin()->first;
        long best_cost = -1;
        for (const auto &[v, occ] : occurrence) {
            long cost = static_cast<long>(occ.first) * occ.second;
            if (best_cost < 0 || cost < best_cost) {
                best = v;
                best_cost = cost;
            }
        }

        std::vector<FmCons> lowers, uppers, rest;
        for (auto &c : ineqs) {
            auto it = c.expr.terms().find(best);
            if (it == c.expr.terms().end())
                rest.push_back(std::move(c));
            else if (it->second > 0)
                uppers.push_back(std::move(c));
            else
                lowers.push_back(std::move(c));
        }

        if (static_cast<long>(rest.size()) +
                static_cast<long>(lowers.size()) *
                    static_cast<long>(uppers.size()) >
            kMaxFmConstraints) {
            stats_.unknowns++;
            return SatResult::Unknown;
        }

        for (const auto &lo : lowers) {
            int64_t a = -lo.expr.terms().at(best);  // a > 0
            for (const auto &up : uppers) {
                int64_t b = up.expr.terms().at(best);  // b > 0
                FmCons combo;
                combo.exact = lo.exact && up.exact && (a == 1 || b == 1);
                if (!combo.exact)
                    all_exact = false;
                // b*lo + a*up eliminates `best`.
                for (const auto &[v, k] : lo.expr.terms())
                    combo.expr.addTerm(v, b * k);
                for (const auto &[v, k] : up.expr.terms())
                    combo.expr.addTerm(v, a * k);
                combo.expr.addConstant(b * lo.expr.constant() +
                                       a * up.expr.constant());
                if (!tighten(combo))
                    return SatResult::Unsat;
                if (combo.expr.terms().empty() &&
                    combo.expr.constant() > 0) {
                    return SatResult::Unsat;
                }
                rest.push_back(std::move(combo));
            }
        }
        ineqs = std::move(rest);
    }

    if (all_exact)
        return SatResult::Sat;

    // Real-shadow sat with inexact steps: verify by bounded model search.
    std::vector<LinLit> verify;
    for (const auto &l : lits)
        verify.push_back(l);
    return searchFallback(verify);
}

/**
 * Bounded branch-and-bound model search: propagate interval bounds from
 * single-variable constraints, then enumerate within (clamped) intervals.
 */
SatResult
Solver::searchFallback(const std::vector<LinLit> &lits)
{
    // Collect variables.
    std::vector<VarId> vars;
    for (const auto &l : lits)
        for (const auto &[v, k] : l.expr.terms())
            if (std::find(vars.begin(), vars.end(), v) == vars.end())
                vars.push_back(v);

    // Initial intervals from unit constraints.
    std::map<VarId, std::pair<int64_t, int64_t>> box;
    for (VarId v : vars)
        box[v] = {-kSearchBound, kSearchBound};
    for (const auto &l : lits) {
        if (l.expr.terms().size() != 1)
            continue;
        auto [v, k] = *l.expr.terms().begin();
        int64_t c = l.expr.constant();
        auto &iv = box[v];
        if (l.rel == LinRel::Le) {
            // k*v + c <= 0
            if (k > 0)
                iv.second = std::min(iv.second, floorDiv(-c, k));
            else
                iv.first = std::max(iv.first, -floorDiv(c, -k));
        } else if (l.rel == LinRel::Eq && (k == 1 || k == -1)) {
            int64_t val = -c * k;
            iv.first = std::max(iv.first, val);
            iv.second = std::min(iv.second, val);
        }
    }
    for (const auto &[v, iv] : box)
        if (iv.first > iv.second)
            return SatResult::Unsat;  // sound: interval from constraints

    std::map<VarId, int64_t> assignment;
    int nodes = 0;
    std::function<SatResult(size_t)> rec = [&](size_t idx) -> SatResult {
        if (++nodes > kMaxSearchNodes)
            return SatResult::Unknown;
        if (idx == vars.size()) {
            for (const auto &l : lits)
                if (!l.eval(assignment))
                    return SatResult::Unsat;
            return SatResult::Sat;
        }
        VarId v = vars[idx];
        auto iv = box[v];
        SatResult acc = SatResult::Unsat;
        for (int64_t x = iv.first; x <= iv.second; x++) {
            assignment[v] = x;
            acc = anySat(acc, rec(idx + 1));
            if (acc == SatResult::Sat)
                break;
        }
        assignment.erase(v);
        return acc;
    };
    SatResult r = rec(0);
    if (r != SatResult::Sat) {
        // The search box is a heuristic clamp; failure to find a model
        // inside it does not prove integer unsatisfiability.
        stats_.unknowns++;
        return SatResult::Unknown;
    }
    return r;
}

} // namespace rid::smt
