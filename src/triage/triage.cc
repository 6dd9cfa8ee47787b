#include "triage/triage.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "analysis/symexec.h"
#include "obs/failpoint.h"
#include "obs/trace.h"

namespace rid::triage {

namespace {

/** Ranking order of the tiers: strongest evidence first, refuted last.
 *  Untriaged never appears post-run; it sorts after everything as a
 *  defensive default. */
int
tierOrder(analysis::Tier t)
{
    switch (t) {
      case analysis::Tier::Confirmed: return 0;
      case analysis::Tier::Unverified: return 1;
      case analysis::Tier::LowConfidence: return 2;
      case analysis::Tier::Refuted: return 3;
      case analysis::Tier::Untriaged: break;
    }
    return 4;
}

bool
isEscapeReport(const analysis::BugReport &r)
{
    // Escape-rule reports reuse BugKind::Inconsistent with the rule text
    // in cons_b; there is no path pair to re-derive.
    return r.cons_b.rfind("(escape rule:", 0) == 0;
}

/** Does @p entry touch the report's (domain, counter) witness key? */
bool
matchesKey(const summary::EffectKey &key, const analysis::BugReport &r)
{
    return key.domain == r.domain && key.counter.str() == r.refcount;
}

} // anonymous namespace

TriagePass::TriagePass(
    const ir::Module &mod, const summary::SummaryDb &db,
    const std::vector<std::pair<std::string, std::string>> &sources,
    std::shared_ptr<smt::QueryCache> cache, TriageOptions opts)
    : mod_(mod), db_(db), sources_(sources), cache_(std::move(cache)),
      opts_(opts)
{
}

smt::Solver
TriagePass::makeSolver(const obs::Budget *budget) const
{
    smt::Solver::Options sopts;
    sopts.cache_pass = 1;
    smt::Solver solver(sopts);
    solver.attachCache(cache_);
    solver.attachBudget(budget);
    return solver;
}

std::unique_ptr<ir::Function>
TriagePass::lowerHp(const std::string &function)
{
    // Re-lower only the definition the run's module kept, from its own
    // unit's retained source, so the re-derived body is the one the base
    // pass analyzed.
    const int base = mod_.indexOf(function);
    if (base < 0 || mod_.skeleton(base).declaration)
        return nullptr;
    const ir::Skeleton &sk = mod_.skeleton(base);
    if (sk.unit >= sources_.size())
        return nullptr;
    obs::Span span("triage", "hp-lower");
    span.arg("function", function);
    if (units_read_.insert(sk.unit).second)
        stats_.hp_units_lowered++;
    frontend::LowerOptions hp = opts_.lower;
    hp.model_bit_tests = true;
    hp.model_field_stores = true;
    // A definition the higher-precision lowering cannot handle triages
    // as `unverified` (no hp definition), which is the TP-safe direction;
    // the other functions of its unit are not affected.
    try {
        return frontend::lowerSpan(sources_[sk.unit].second, sk.span, hp);
    } catch (const std::exception &) {
        return nullptr;
    }
}

const TriagePass::HpExec &
TriagePass::hpExecFor(const std::string &function)
{
    auto it = hp_cache_.find(function);
    if (it != hp_cache_.end())
        return it->second;

    obs::Span span("triage", "hp-exec");
    span.arg("function", function);
    HpExec exec;
    const std::unique_ptr<ir::Function> fn = lowerHp(function);
    if (!fn) {
        exec.note = "no higher-precision definition";
    } else {
        // Fuel-only budget: the re-execution must be deterministic, so
        // wall-clock deadlines are never used here.
        obs::Budget budget(nullptr, 0, opts_.fuel);
        smt::Solver solver = makeSolver(&budget);
        analysis::TreeExecOptions topts;
        topts.max_subcases = opts_.max_subcases;
        topts.max_paths = opts_.max_paths;
        topts.budget = &budget;
        try {
            analysis::TreeExecResult res =
                analysis::executeFunctionTree(*fn, db_, solver, topts);
            stats_.hp_functions_executed++;
            for (auto &path : res.completed)
                for (auto &entry : path.entries)
                    exec.entries.push_back(std::move(entry));
            // Only a complete re-execution may refute: a truncated or
            // budget-stopped tree can miss the witness path.
            exec.complete = !res.truncated && !res.deadline_hit &&
                            budget.stopReason() == obs::BudgetStop::None;
            if (!exec.complete)
                exec.note = "higher-precision execution incomplete";
        } catch (const std::exception &e) {
            exec.note = e.what();
        }
        stats_.solver += solver.stats();
    }
    if (!exec.complete)
        stats_.hp_functions_incomplete++;
    return hp_cache_.emplace(function, std::move(exec)).first->second;
}

TriagePass::Verdict
TriagePass::checkInconsistent(const analysis::BugReport &report,
                              const HpExec &hp, smt::Solver &solver,
                              const obs::Budget &budget)
{
    using analysis::Tier;
    Verdict v;
    bool uncertain = false;
    std::vector<smt::QueryInfo> refutation;
    const auto &es = hp.entries;
    for (size_t i = 0; i < es.size(); i++) {
        for (size_t j = i + 1; j < es.size(); j++) {
            auto diffs =
                summary::SummaryEntry::changedDifferently(es[i], es[j]);
            bool on_key = false;
            for (const auto &d : diffs)
                on_key = on_key || matchesKey(d.first, report);
            if (!on_key)
                continue;
            if (!summary::SummaryEntry::sameStores(es[i], es[j])) {
                // At higher precision the pair is distinguishable by its
                // caller-visible stores: not this report's witness.
                continue;
            }
            // The witness query: both paths feasible together under the
            // full path-condition conjunction.
            smt::Formula overlap = es[i].cons.land(es[j].cons);
            smt::SatResult direct = solver.check(overlap);
            smt::QueryInfo direct_query = solver.lastQuery();
            if (budget.stopReason() != obs::BudgetStop::None) {
                stats_.budget_stops++;
                v.tier = Tier::Unverified;
                return v;
            }
            // The negated-consistency query: Unsat proves the overlap
            // holds on every assignment, a decisive witness even when
            // the direct query came back Unknown.
            smt::SatResult negated =
                solver.check(smt::Formula::negation(overlap));
            smt::QueryInfo negated_query = solver.lastQuery();
            if (budget.stopReason() != obs::BudgetStop::None) {
                stats_.budget_stops++;
                v.tier = Tier::Unverified;
                return v;
            }
            if (direct == smt::SatResult::Sat ||
                (direct == smt::SatResult::Unknown &&
                 negated == smt::SatResult::Unsat)) {
                v.tier = Tier::Confirmed;
                v.evidence = {direct_query, negated_query};
                return v;
            }
            if (direct == smt::SatResult::Unknown) {
                uncertain = true;
                if (v.evidence.empty())
                    v.evidence = {direct_query, negated_query};
            } else {
                // Unsat: this candidate pair dissolved; remember the
                // deciding queries in case every pair does.
                refutation = {direct_query, negated_query};
            }
        }
    }
    if (uncertain) {
        v.tier = Tier::LowConfidence;
        return v;
    }
    v.tier = Tier::Refuted;
    v.evidence = std::move(refutation);
    return v;
}

TriagePass::Verdict
TriagePass::checkUnbalanced(const analysis::BugReport &report,
                            const HpExec &hp, smt::Solver &solver,
                            const obs::Budget &budget)
{
    using analysis::Tier;
    Verdict v;
    bool feasible = false;
    bool uncertain = false;
    std::vector<smt::QueryInfo> refutation;
    for (const auto &entry : hp.entries) {
        bool leaks = false;
        for (const auto &[key, delta] : entry.changes)
            leaks = leaks || (delta != 0 && matchesKey(key, report));
        if (!leaks)
            continue;
        smt::SatResult res = solver.check(entry.cons);
        smt::QueryInfo query = solver.lastQuery();
        if (budget.stopReason() != obs::BudgetStop::None) {
            stats_.budget_stops++;
            v.tier = Tier::Unverified;
            return v;
        }
        if (res == smt::SatResult::Sat) {
            feasible = true;
            v.evidence = {query};
            break;
        }
        if (res == smt::SatResult::Unknown) {
            uncertain = true;
            if (v.evidence.empty())
                v.evidence = {query};
        } else {
            refutation = {query};
        }
    }
    if (feasible) {
        // The imbalance reproduces; a downstream release in a bounded
        // caller neighborhood is the one mitigating circumstance the
        // paper's hand-triage accepts.
        v.tier = findDownstreamRelease(report) ? Tier::LowConfidence
                                               : Tier::Confirmed;
        return v;
    }
    if (uncertain) {
        v.tier = Tier::LowConfidence;
        return v;
    }
    v.tier = Tier::Refuted;
    v.evidence = std::move(refutation);
    return v;
}

bool
TriagePass::findDownstreamRelease(const analysis::BugReport &report)
{
    if (opts_.extension_depth <= 0)
        return false;
    if (!callgraph_)
        callgraph_ = std::make_unique<analysis::CallGraph>(mod_);
    int start = callgraph_->nodeOf(report.function);
    if (start < 0)
        return false;
    stats_.extension_searches++;
    obs::Span span("triage", "extension-search");
    span.arg("function", report.function);

    // Breadth-first over transitive callers, bounded by depth and node
    // count. A caller qualifies when some callee other than the reported
    // function has a summary with an opposite-signed effect in the
    // report's domain — the release the reported function "leaked".
    std::vector<std::pair<int, int>> frontier = {{start, 0}};
    std::set<int> seen = {start};
    int visited = 0;
    for (size_t qi = 0; qi < frontier.size(); qi++) {
        auto [node, depth] = frontier[qi];
        if (depth >= opts_.extension_depth)
            continue;
        for (int caller : callgraph_->callersOf(node)) {
            if (!seen.insert(caller).second)
                continue;
            if (++visited > opts_.max_extension_functions)
                return false;
            for (int callee : callgraph_->calleesOf(caller)) {
                const std::string &name = callgraph_->nameOf(callee);
                if (name == report.function)
                    continue;
                const summary::FunctionSummary *s = db_.find(name);
                if (!s)
                    continue;
                for (const auto &entry : s->entries) {
                    for (const auto &[key, delta] : entry.changes) {
                        if (key.domain != report.domain)
                            continue;
                        if ((report.delta_a > 0 && delta < 0) ||
                            (report.delta_a < 0 && delta > 0)) {
                            stats_.downstream_releases_found++;
                            return true;
                        }
                    }
                }
            }
            frontier.push_back({caller, depth + 1});
        }
    }
    return false;
}

void
TriagePass::triageOne(analysis::BugReport &report)
{
    using analysis::Tier;
    stats_.reports_triaged++;

    // The failpoint fires before any shared state (hp module, memoized
    // executions, cache entries) is touched for this report, so a faulted
    // victim leaves bystander reports byte-identical.
    obs::FailpointScope scope(report.function);
    try {
        obs::failpoint("analysis.triage.refute");
    } catch (const obs::InjectedFault &) {
        stats_.faults++;
        report.tier = Tier::Unverified;
        return;
    }

    if (isEscapeReport(report)) {
        // Escape reports have no path-pair witness to re-query.
        report.tier = Tier::Unverified;
        return;
    }

    const HpExec &hp = hpExecFor(report.function);
    if (!hp.complete) {
        report.tier = Tier::Unverified;
        return;
    }

    obs::Budget budget(nullptr, 0, opts_.fuel);
    smt::Solver solver = makeSolver(&budget);
    Verdict v = report.kind == analysis::BugKind::Unbalanced
                    ? checkUnbalanced(report, hp, solver, budget)
                    : checkInconsistent(report, hp, solver, budget);
    report.tier = v.tier;
    for (auto &q : v.evidence)
        report.queries.push_back(q);
    stats_.solver += solver.stats();
}

void
TriagePass::run(std::vector<analysis::BugReport> &reports)
{
    auto t0 = std::chrono::steady_clock::now();
    obs::Span span("triage", "run");
    stats_.ran = true;
    for (auto &report : reports)
        triageOne(report);

    for (const auto &report : reports) {
        switch (report.tier) {
          case analysis::Tier::Confirmed: stats_.confirmed++; break;
          case analysis::Tier::Unverified: stats_.unverified++; break;
          case analysis::Tier::LowConfidence:
            stats_.low_confidence++;
            break;
          case analysis::Tier::Refuted: stats_.refuted++; break;
          case analysis::Tier::Untriaged: break;
        }
    }

    // Deterministic rank: tier first, then a total order on the witness
    // identity. stable_sort keeps equal keys (identical fingerprints) in
    // emission order.
    std::stable_sort(
        reports.begin(), reports.end(),
        [](const analysis::BugReport &a, const analysis::BugReport &b) {
            if (tierOrder(a.tier) != tierOrder(b.tier))
                return tierOrder(a.tier) < tierOrder(b.tier);
            if (a.function != b.function)
                return a.function < b.function;
            if (a.domain != b.domain)
                return a.domain < b.domain;
            if (a.refcount != b.refcount)
                return a.refcount < b.refcount;
            if (a.kind != b.kind)
                return static_cast<uint8_t>(a.kind) <
                       static_cast<uint8_t>(b.kind);
            return a.fingerprint < b.fingerprint;
        });
    for (size_t i = 0; i < reports.size(); i++)
        reports[i].rank = static_cast<int>(i) + 1;

    stats_.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
}

} // namespace rid::triage
