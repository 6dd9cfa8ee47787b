#include "analysis/symexec.h"

#include <cassert>
#include <charconv>
#include <functional>
#include <map>
#include <utility>

#include "analysis/cow.h"
#include "analysis/paths.h"
#include "frontend/lower.h"
#include "obs/budget.h"
#include "obs/failpoint.h"
#include "obs/trace.h"
#include "smt/cond_chain.h"
#include "summary/summary.h"

namespace rid::analysis {

namespace {

using smt::Expr;
using smt::ExprKind;
using smt::Formula;
using summary::SummaryEntry;

/**
 * Instantiate one callee summary entry for a call site (Algorithm 1):
 * formal→actual substitution, opaque-return decision, result binding
 * and local-store filtering. The instantiation is computed identically
 * whether or not an InstCache is attached — a hit returns the exact
 * value a fresh computation would, keyed by stable fingerprints and
 * verified structurally. @p slot is the call site's temp, which stands
 * for an opaque or unsummarized result. @p instantiated counts from-scratch
 * computations only (cache misses), the quantity the interning exists
 * to reduce.
 */
summary::CallInstantiation
instantiateCallEntry(const summary::FunctionSummary &callee,
                     size_t entry_index, const std::vector<Expr> &actuals,
                     const Expr &slot, bool wants_result,
                     summary::InstCache *cache, uint64_t &instantiated)
{
    summary::InstCache::Key key;
    if (cache) {
        key.summary_fp = callee.fingerprint;
        key.entry_index = entry_index;
        key.actuals = actuals;
        key.slot = slot;
        key.wants_result = wants_result;
        if (auto hit = cache->lookup(key))
            return *hit;
    }
    instantiated++;
    // Instantiate formals first, then decide how the return value is
    // represented. A ret still mentioning callee state ([0] from a
    // truncation default, or a local that escaped projection) is opaque
    // to the caller and stands behind the call-site temp.
    SummaryEntry inst = summary::instantiate(callee.entries[entry_index],
                                             callee.params, actuals,
                                             Expr(), callee.function);
    Expr res;
    if (inst.ret) {
        bool opaque = inst.ret.containsIf([](const Expr &e) {
                          return e.kind() == ExprKind::Ret;
                      }) ||
                      inst.ret.mentionsLocalState();
        res = opaque ? slot : inst.ret;
    } else if (wants_result) {
        res = slot;
    }
    if (res)
        summary::bindResult(inst, res);
    summary::CallInstantiation out;
    out.cons = std::move(inst.cons);
    out.changes = std::move(inst.changes);
    for (const auto &store : inst.stores) {
        if (!store.mentionsLocalState())
            out.stores.insert(store);
    }
    out.result = res;
    if (cache)
        cache->insert(key, out);
    return out;
}

/** Orders interned names by handle. The value map is only probed,
 *  never iterated into output, so an address order is safe and spares
 *  comparing spellings. */
struct NameIdLess
{
    bool
    operator()(ir::Name a, ir::Name b) const
    {
        return std::less<const std::string *>()(&a.str(), &b.str());
    }
};

using TreeVMap = CowMap<ir::Name, Expr, NameIdLess>;

/** Evaluate an operand under a state's value map. */
Expr
valueOf(const ir::Value &v, const ir::Function &fn, const TreeVMap &vmap)
{
    switch (v.kind()) {
      case ir::ValueKind::Var: {
        if (const Expr *bound = vmap.lookup(v.varName()))
            return *bound;
        // Default valuation: formal arguments are argument atoms, other
        // names are unconstrained locals.
        ir::Name name = v.varName();
        if (fn.isParam(name))
            return Expr::arg(name);
        return Expr::local(name);
      }
      case ir::ValueKind::IntConst:
        return Expr::intConst(v.intValue());
      case ir::ValueKind::BoolConst:
        return Expr::boolConst(v.boolValue());
      case ir::ValueKind::Null:
        return Expr::null();
      case ir::ValueKind::None:
        return Expr();
    }
    return Expr();
}

/** The analysis temp @p tag<block>_<idx>[_<occ>] (e.g. c3_5_0), the
 *  deterministic name of an unconstrained value. Short spellings stay
 *  in the string's inline buffer, so this does not allocate. */
Expr
tempAtom(char tag, int64_t block, int64_t idx, int64_t occ = -1)
{
    std::string name(1, tag);
    char buf[24];
    auto put = [&](int64_t v) {
        name.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    };
    put(block);
    name += '_';
    put(idx);
    if (occ >= 0) {
        name += '_';
        put(occ);
    }
    return Expr::temp(name);
}

/**
 * Build the symbolic result of a comparison, folding comparisons of a
 * boolean-valued expression against 0/1 back into the boolean itself so
 * `if (ok)` over `ok = (a == b)` keeps its precision.
 */
Expr
makeCmp(smt::Pred pred, const Expr &lhs, const Expr &rhs)
{
    if (lhs.isConst() && rhs.isConst()) {
        int64_t l = lhs.kind() == ExprKind::BoolConst
                        ? (lhs.boolValue() ? 1 : 0)
                        : lhs.intValue();
        int64_t r = rhs.kind() == ExprKind::BoolConst
                        ? (rhs.boolValue() ? 1 : 0)
                        : rhs.intValue();
        return Expr::boolConst(smt::evalPred(pred, l, r));
    }
    auto foldBool = [](const Expr &b, smt::Pred p,
                       int64_t k) -> Expr {
        // b is boolean-valued, compared against constant k.
        if (k == 0) {
            if (p == smt::Pred::Ne || p == smt::Pred::Gt)
                return b;
            if (p == smt::Pred::Eq || p == smt::Pred::Le)
                return b.negated();
        } else if (k == 1) {
            if (p == smt::Pred::Eq || p == smt::Pred::Ge)
                return b;
            if (p == smt::Pred::Ne || p == smt::Pred::Lt)
                return b.negated();
        }
        return Expr();
    };
    if (lhs.isBoolean() && rhs.kind() == ExprKind::IntConst) {
        if (Expr e = foldBool(lhs, pred, rhs.intValue()))
            return e;
    }
    if (rhs.isBoolean() && lhs.kind() == ExprKind::IntConst) {
        if (Expr e = foldBool(rhs, smt::swapPred(pred), lhs.intValue()))
            return e;
    }
    if (lhs.isBoolean() || rhs.isBoolean()) {
        // Comparison over booleans outside the foldable cases: the result
        // is unconstrained (outside the LIA abstraction).
        return Expr();
    }
    return Expr::cmp(pred, lhs, rhs);
}

/** The condition literal asserted when branching on @p cond_value. */
Formula
branchCondition(const Expr &cond_value, bool taken)
{
    if (!cond_value)
        return Formula::top();
    Expr cond = cond_value;
    if (!cond.isBoolean())
        cond = Expr::cmp(smt::Pred::Ne, cond, Expr::intConst(0));
    if (!taken)
        cond = cond.negated();
    return Formula::lit(cond);
}

/** Collect the top-level conjunct literals of a formula. */
std::vector<Expr>
topLevelLiterals(const Formula &f)
{
    std::vector<Expr> lits;
    if (f.kind() == smt::FormulaKind::Lit) {
        lits.push_back(f.literal());
    } else if (f.kind() == smt::FormulaKind::And) {
        for (const auto &c : f.children())
            if (c.kind() == smt::FormulaKind::Lit)
                lits.push_back(c.literal());
    }
    return lits;
}

bool
isLocalAtom(const Expr &e)
{
    return e.kind() == ExprKind::Local || e.kind() == ExprKind::Temp;
}

/**
 * Project local state out of a summary entry: use top-level equalities to
 * rewrite local atoms into argument/return terms, then drop any literal
 * still mentioning local state (Section 3.3.3). Refcount-change keys and
 * the return expression are rewritten by the same substitutions so that
 * e.g. the refcount of a freshly created and returned object becomes
 * [0].rc.
 */
void
projectEntryLocals(SummaryEntry &entry)
{
    for (int round = 0; round < 64; round++) {
        bool substituted = false;
        for (const Expr &lit : topLevelLiterals(entry.cons.nnf())) {
            if (lit.kind() != ExprKind::Cmp ||
                lit.pred() != smt::Pred::Eq) {
                continue;
            }
            Expr from, to;
            if (isLocalAtom(lit.lhs()) &&
                !lit.rhs().mentionsLocalState()) {
                from = lit.lhs();
                to = lit.rhs();
            } else if (isLocalAtom(lit.rhs()) &&
                       !lit.lhs().mentionsLocalState()) {
                from = lit.rhs();
                to = lit.lhs();
            } else {
                continue;
            }
            entry.cons = entry.cons.substitute(from, to);
            if (entry.ret)
                entry.ret = entry.ret.substitute(from, to);
            summary::ChangeMap new_changes;
            for (const auto &[rc, delta] : entry.changes)
                new_changes[rc.substitute(from, to)] += delta;
            entry.changes = std::move(new_changes);
            summary::StoreSet new_stores;
            for (const auto &s : entry.stores)
                new_stores.insert(s.substitute(from, to));
            entry.stores = std::move(new_stores);
            substituted = true;
            break;
        }
        if (!substituted)
            break;
    }
    entry.cons = entry.cons.dropLiteralsIf(
        [](const Expr &lit) { return lit.mentionsLocalState(); });
    // Store effects on objects that died with the function are not
    // observable by callers.
    for (auto it = entry.stores.begin(); it != entry.stores.end();) {
        if (it->mentionsLocalState())
            it = entry.stores.erase(it);
        else
            ++it;
    }
    entry.normalizeChanges();
}

/**
 * Finish one state that reached a Return: append the return-value
 * constraint to @p parts, project locals out and stamp provenance.
 */
SummaryEntry
finishReturnState(const Expr &retval, std::vector<Formula> parts,
                  summary::ChangeMap changes, summary::StoreSet stores,
                  std::vector<int> change_lines,
                  std::vector<std::string> callees, int return_line)
{
    SummaryEntry entry;
    entry.changes = std::move(changes);
    entry.stores = std::move(stores);
    if (retval) {
        if (retval.isConst()) {
            entry.ret = retval;
            parts.push_back(Formula::lit(
                Expr::cmp(smt::Pred::Eq, Expr::ret(), retval)));
        } else if (retval.isBoolean()) {
            // Returning a comparison: [0] is its 0/1 encoding.
            entry.ret = Expr::ret();
            Formula as_one = Formula::conj(
                {Formula::lit(retval),
                 Formula::lit(Expr::cmp(smt::Pred::Eq, Expr::ret(),
                                        Expr::intConst(1)))});
            Formula as_zero = Formula::conj(
                {Formula::lit(retval.negated()),
                 Formula::lit(Expr::cmp(smt::Pred::Eq, Expr::ret(),
                                        Expr::intConst(0)))});
            parts.push_back(Formula::disj({as_one, as_zero}));
        } else {
            entry.ret = Expr::ret();
            parts.push_back(Formula::lit(
                Expr::cmp(smt::Pred::Eq, Expr::ret(), retval)));
        }
    }
    entry.cons = Formula::conj(std::move(parts));
    projectEntryLocals(entry);
    entry.origin.change_lines = std::move(change_lines);
    entry.origin.callees = std::move(callees);
    entry.origin.return_line = return_line;
    return entry;
}

/** One prefix-sharing execution state. The path condition is a
 *  persistent chain and the value map a copy-on-write overlay, so a
 *  fork at a branch is O(1) instead of O(path so far). */
struct TreeState
{
    smt::CondChain cons;
    summary::ChangeMap changes;
    summary::StoreSet stores;
    TreeVMap vmap;
    std::vector<int> change_lines;
    /** Callee summaries instantiated along this path (provenance). */
    std::vector<std::string> callees;
    /** Per-call-site execution counts, for deterministic temp naming. */
    std::map<const ir::Instruction *, int> call_occurrence;
};

/**
 * Prefix-sharing depth-first executor. Walks the CFG tree the path
 * enumerator would unfold (same loop-unroll bound, same assert-fail
 * skipping, same child order), executing every tree edge exactly once
 * and forking the state set at conditional branches. Completed paths
 * surface in enumeration order, and their entries are what the paper's
 * per-path replay (§4.4) produces; tests/golden/tree_exec_entries.golden
 * pins them. See DESIGN.md.
 */
class TreeExecutor
{
  public:
    TreeExecutor(const ir::Function &fn, const summary::SummaryDb &db,
                 smt::Solver &solver, const TreeExecOptions &opts)
        : fn_(fn), db_(db), solver_(solver), opts_(opts),
          visits_(fn.numBlocks(), 0)
    {}

    /** Walk the tree once; the executor is spent afterwards. */
    TreeExecResult
    run()
    {
        if (enterable(0))
            dfs(0, initialStates());
        finalize();
        return std::move(res_);
    }

  private:
    /** How one block's instruction list left the state set. */
    struct BlockStep
    {
        enum Kind { Returned, Continue, Dead };
        Kind kind = Dead;
        /** Returned: the completed path's entries. */
        PathOutcome outcome;
        /** Continue: viable children in DFS order, branch literal
         *  applied and infeasible states already pruned. */
        std::vector<std::pair<ir::BlockId, std::vector<TreeState>>>
            children;
    };

    /** Mirror of the path enumerator's per-child entry checks. */
    bool
    enterable(ir::BlockId b) const
    {
        return visits_[b] < kMaxBlockVisits &&
               !blockCallsAssertFail(fn_.block(b));
    }

    bool
    pruneState(const TreeState &s) const
    {
        return !solver_.isSatChain(s.cons);
    }

    std::vector<TreeState>
    initialStates() const
    {
        TreeState initial;
        for (const auto &p : fn_.params())
            initial.vmap.set(p, Expr::arg(p));
        std::vector<TreeState> states;
        states.push_back(std::move(initial));
        return states;
    }

    /** Stamp the structural truncation flags and globally consistent
     *  path indices once the completed list is final. */
    void
    finalize()
    {
        if (static_cast<int>(res_.completed.size()) >= opts_.max_paths) {
            res_.truncated = true;
            res_.path_cap_hit = true;
        }
        for (size_t i = 0; i < res_.completed.size(); i++)
            for (auto &e : res_.completed[i].entries)
                e.origin.path_index = static_cast<int>(i);
    }

    BlockStep stepBlock(ir::BlockId b, std::vector<TreeState> states);
    void dfs(ir::BlockId b, std::vector<TreeState> states);

    const ir::Function &fn_;
    const summary::SummaryDb &db_;
    smt::Solver &solver_;
    const TreeExecOptions &opts_;
    /** Times each block appears on the current DFS path. */
    std::vector<int> visits_;
    TreeExecResult res_;
    /** Set once the budget or the path cap ends the walk. */
    bool stop_ = false;
};

TreeExecutor::BlockStep
TreeExecutor::stepBlock(ir::BlockId b, std::vector<TreeState> states)
{
    const auto &bb = fn_.block(b);
    res_.blocks_executed++;
    BlockStep step;
    for (size_t idx = 0; idx < bb.instrs.size(); idx++) {
        const ir::Instruction &in = bb.instrs[idx];
        switch (in.op) {
          case ir::Opcode::Assign:
            for (auto &s : states)
                s.vmap.set(in.dst, valueOf(in.a, fn_, s.vmap));
            break;
          case ir::Opcode::FieldLoad:
            for (auto &s : states) {
                Expr base = valueOf(in.a, fn_, s.vmap);
                if (base.isConst() || base.isBoolean()) {
                    // Field of a constant: unconstrained.
                    s.vmap.set(in.dst, tempAtom('f', b, idx));
                } else {
                    s.vmap.set(in.dst, Expr::field(base, in.field));
                }
            }
            break;
          case ir::Opcode::FieldStore:
            // Extension (Section 5.4): a store to a caller-visible
            // structure is an observable path effect. Stores to local
            // objects are invisible outside and are dropped.
            for (auto &s : states) {
                Expr base = valueOf(in.a, fn_, s.vmap);
                if (base && !base.isConst() && !base.isBoolean() &&
                    !base.mentionsLocalState()) {
                    s.stores.insert(Expr::field(base, in.field));
                }
            }
            break;
          case ir::Opcode::Random:
            for (auto &s : states) {
                int occ = s.call_occurrence[&in]++;
                s.vmap.set(in.dst, tempAtom('r', b, idx, occ));
            }
            break;
          case ir::Opcode::Cmp:
            for (auto &s : states) {
                Expr l = valueOf(in.a, fn_, s.vmap);
                Expr r = valueOf(in.b, fn_, s.vmap);
                Expr c = makeCmp(in.pred, l, r);
                if (c)
                    s.vmap.set(in.dst, c);
                else
                    s.vmap.set(in.dst, tempAtom('b', b, idx));
            }
            break;
          case ir::Opcode::Branch:
            // Terminator: one unconditional successor.
            if (enterable(in.target))
                step.children.emplace_back(in.target, std::move(states));
            step.kind = step.children.empty() ? BlockStep::Dead
                                              : BlockStep::Continue;
            return step;
          case ir::Opcode::CondBranch: {
            // Terminator: fork the state set per viable side. The side
            // order matches the enumerator's successor order, and the
            // condition literal replaces any literal this instruction
            // asserted on an earlier (unrolled) execution (Figure 6).
            std::vector<ir::BlockId> sides;
            for (ir::BlockId sb : {in.target, in.target_else})
                if (enterable(sb))
                    sides.push_back(sb);
            if (sides.size() > 1)
                for (auto &s : states)
                    s.vmap.freeze();  // forks share, not copy, the env
            for (size_t k = 0; k < sides.size(); k++) {
                if (k > 0)
                    res_.forks++;
                std::vector<TreeState> side_states =
                    k + 1 < sides.size() ? states : std::move(states);
                bool taken = sides[k] == in.target;
                std::vector<TreeState> kept;
                for (auto &s : side_states) {
                    Expr cond;
                    if (in.a.isVar())
                        cond = valueOf(in.a, fn_, s.vmap);
                    Formula lit = branchCondition(cond, taken);
                    s.cons = s.cons.withoutSource(&in).extended(&in, lit);
                    if (!pruneState(s))
                        kept.push_back(std::move(s));
                }
                if (kept.empty()) {
                    // Infeasible side: the whole subtree below it is
                    // skipped.
                    res_.subtrees_pruned++;
                    continue;
                }
                step.children.emplace_back(sides[k], std::move(kept));
            }
            step.kind = step.children.empty() ? BlockStep::Dead
                                              : BlockStep::Continue;
            return step;
          }
          case ir::Opcode::Call: {
            if (in.callee == frontend::kAssertFailFn) {
                states.clear();
                break;
            }
            const summary::FunctionSummary *callee = db_.find(in.callee);
            std::vector<TreeState> next;
            for (auto &s : states) {
                std::vector<Expr> actuals;
                actuals.reserve(in.args.size());
                for (const auto &a : in.args)
                    actuals.push_back(valueOf(a, fn_, s.vmap));
                int occ = s.call_occurrence[&in]++;
                Expr slot = tempAtom('c', b, idx, occ);

                if (!callee) {
                    // No summary at all: default behaviour inline.
                    if (!in.dst.empty())
                        s.vmap.set(in.dst, slot);
                    next.push_back(std::move(s));
                    continue;
                }
                if (callee->entries.size() > 1)
                    s.vmap.freeze();  // entry forks share the env
                for (size_t ei = 0; ei < callee->entries.size(); ei++) {
                    if (static_cast<int>(next.size()) >=
                        opts_.max_subcases) {
                        res_.truncated = true;
                        break;
                    }
                    summary::CallInstantiation inst = instantiateCallEntry(
                        *callee, ei, actuals, slot, !in.dst.empty(),
                        opts_.inst_cache, res_.entries_instantiated);

                    TreeState forked = s;
                    forked.callees.push_back(in.callee);
                    forked.cons = s.cons.extended(nullptr, inst.cons);
                    for (const auto &[rc, delta] : inst.changes) {
                        forked.changes[rc] += delta;
                        forked.change_lines.push_back(in.line);
                    }
                    for (const auto &store : inst.stores)
                        forked.stores.insert(store);
                    if (!in.dst.empty())
                        forked.vmap.set(in.dst,
                                        inst.result ? inst.result : slot);
                    if (!pruneState(forked))
                        next.push_back(std::move(forked));
                }
            }
            states = std::move(next);
            break;
          }
          case ir::Opcode::Return: {
            // One feasible path completed.
            obs::failpoint("analysis.symexec.path");
            for (auto &s : states) {
                Expr retval = valueOf(in.a, fn_, s.vmap);
                if (static_cast<int>(step.outcome.entries.size()) <
                    opts_.max_subcases) {
                    step.outcome.entries.push_back(finishReturnState(
                        retval, s.cons.parts(), s.changes, s.stores,
                        s.change_lines, s.callees, in.line));
                } else {
                    res_.truncated = true;
                }
            }
            step.kind = BlockStep::Returned;
            return step;
          }
        }
        if (states.empty()) {
            // Every state died mid-block (an unsatisfiable call entry
            // constraint): the continuation below is unreachable.
            res_.subtrees_pruned++;
            step.kind = BlockStep::Dead;
            return step;
        }
        if (static_cast<int>(states.size()) > opts_.max_subcases) {
            states.resize(opts_.max_subcases);
            res_.truncated = true;
        }
    }
    // Verified IR guarantees a terminator ended the block above.
    assert(false && "block without terminator");
    step.kind = BlockStep::Dead;
    return step;
}

void
TreeExecutor::dfs(ir::BlockId b, std::vector<TreeState> states)
{
    if (stop_)
        return;
    if (opts_.budget && opts_.budget->expired()) {
        res_.deadline_hit = true;
        stop_ = true;
        return;
    }
    if (static_cast<int>(res_.completed.size()) >= opts_.max_paths) {
        res_.truncated = true;
        res_.path_cap_hit = true;
        stop_ = true;
        return;
    }
    visits_[b]++;
    BlockStep step = stepBlock(b, std::move(states));
    switch (step.kind) {
      case BlockStep::Returned:
        res_.completed.push_back(std::move(step.outcome));
        break;
      case BlockStep::Continue:
        for (auto &[child, child_states] : step.children) {
            if (stop_)
                break;
            dfs(child, std::move(child_states));
        }
        break;
      case BlockStep::Dead:
        break;
    }
    visits_[b]--;
}

} // anonymous namespace

smt::Formula
projectLocals(const smt::Formula &cons)
{
    SummaryEntry e;
    e.cons = cons;
    projectEntryLocals(e);
    return e.cons;
}

TreeExecResult
executeFunctionTree(const ir::Function &fn, const summary::SummaryDb &db,
                    smt::Solver &solver, const TreeExecOptions &opts)
{
    assert(!fn.isDeclaration());
    // The tree walk subsumes path discovery, so it owns the enumeration
    // failpoint as well as the per-path one.
    obs::failpoint("analysis.paths.enumerate");
    obs::Span span("phase", "symexec-tree");
    span.arg("fn", fn.name());
    TreeExecResult res = TreeExecutor(fn, db, solver, opts).run();
    span.arg("paths", std::to_string(res.completed.size()));
    return res;
}

} // namespace rid::analysis
