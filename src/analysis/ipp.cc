#include "analysis/ipp.h"

#include <algorithm>
#include <sstream>

#include "obs/failpoint.h"
#include "obs/trace.h"
#include "smt/intern.h"

namespace rid::analysis {

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Untriaged: return "untriaged";
      case Tier::Confirmed: return "confirmed";
      case Tier::Unverified: return "unverified";
      case Tier::LowConfidence: return "low-confidence";
      case Tier::Refuted: return "refuted";
    }
    return "?";
}

uint64_t
BugReport::computeFingerprint(uint64_t function_fingerprint) const
{
    // Normalized witness shape: every ingredient is byte-stable across
    // threads/cache settings (pinned by the determinism suite), so the
    // fingerprint is too. Solver evidence and callee chains stay out —
    // they carry run-configuration detail (cache hits).
    using smt::fpBytes;
    using smt::fpCombine;
    uint64_t h = fpCombine(function_fingerprint, fpBytes(function));
    h = fpCombine(h, fpBytes(domain));
    h = fpCombine(h, fpBytes(refcount));
    h = fpCombine(h, static_cast<uint64_t>(kind));
    h = fpCombine(h, static_cast<uint64_t>(static_cast<int64_t>(delta_a)));
    h = fpCombine(h, static_cast<uint64_t>(static_cast<int64_t>(delta_b)));
    h = fpCombine(h, fpBytes(cons_a));
    h = fpCombine(h, fpBytes(cons_b));
    for (int line : lines_a)
        h = fpCombine(h, static_cast<uint64_t>(static_cast<int64_t>(line)));
    h = fpCombine(h, static_cast<uint64_t>(lines_a.size()));
    for (int line : lines_b)
        h = fpCombine(h, static_cast<uint64_t>(static_cast<int64_t>(line)));
    h = fpCombine(h, static_cast<uint64_t>(lines_b.size()));
    h = fpCombine(h,
                  static_cast<uint64_t>(static_cast<int64_t>(return_line_a)));
    h = fpCombine(h,
                  static_cast<uint64_t>(static_cast<int64_t>(return_line_b)));
    return h;
}

std::string
BugReport::str() const
{
    // Ref-domain inconsistencies render exactly as before domains
    // existed ("refcount ... changed inconsistently"); other domains use
    // their name as the noun.
    std::ostringstream os;
    os << function << ": "
       << (domain == summary::kRefDomain ? "refcount" : domain) << " "
       << refcount;
    if (kind == BugKind::Unbalanced)
        os << " unbalanced at return: ";
    else
        os << " changed inconsistently: ";
    os << (delta_a >= 0 ? "+" : "") << delta_a << " when (" << cons_a
       << ")";
    if (!lines_a.empty()) {
        os << " [lines";
        for (int l : lines_a)
            os << " " << l;
        os << "]";
    }
    if (kind != BugKind::Unbalanced) {
        os << " vs " << (delta_b >= 0 ? "+" : "") << delta_b << " when ("
           << cons_b << ")";
        if (!lines_b.empty()) {
            os << " [lines";
            for (int l : lines_b)
                os << " " << l;
            os << "]";
        }
    }
    // Pre-triage rendering is byte-pinned by the determinism suite; the
    // tier suffix appears only once the triage pass has stamped one.
    if (tier != Tier::Untriaged)
        os << " {" << tierName(tier) << "}";
    return os.str();
}

namespace {

/** Root atom of a (possibly nested) field expression. */
smt::ExprKind
rootKindOf(smt::Expr e)
{
    while (e.kind() == smt::ExprKind::Field)
        e = e.base();
    return e.kind();
}

} // anonymous namespace

IppResult
checkAndMerge(const std::string &function,
              std::vector<summary::SummaryEntry> entries,
              smt::Solver &solver, const IppOptions &opts)
{
    obs::failpoint("analysis.ipp.check");
    obs::Span span("phase", "ipp-check");
    span.arg("fn", function);
    span.arg("entries", std::to_string(entries.size()));

    IppResult result;

    auto policyOf = [&opts](const std::string &d) {
        return opts.domains ? opts.domains->policyOf(d)
                            : summary::DomainPolicy::Ipp;
    };
    auto enabled = [&opts](const std::string &d) {
        if (!opts.enabled_domains || opts.enabled_domains->empty())
            return true;
        for (const auto &e : *opts.enabled_domains)
            if (e == d)
                return true;
        return false;
    };

    // Per-domain policy pre-pass over each entry's effects: strip
    // disabled domains, and under the `balanced` policy flag any path
    // returning with a nonzero net change whose counter does not escape
    // through the return value (Ret-rooted counters are handed to the
    // caller — e.g. a correct allocator wrapper). The offending key is
    // erased after reporting so callers of the buggy function are not
    // flooded with cascading reports, mirroring the drop-one-of-the-pair
    // choice below. The pass is skipped entirely on pre-domain (ref-only,
    // unfiltered) runs, which must stay byte-identical.
    const bool filter_active =
        opts.enabled_domains && !opts.enabled_domains->empty();
    if (filter_active || (opts.domains && opts.domains->anyNonIpp())) {
        for (auto &entry : entries) {
            for (auto it = entry.changes.begin();
                 it != entry.changes.end();) {
                const summary::EffectKey &rc = it->first;
                if (!enabled(rc.domain)) {
                    it = entry.changes.erase(it);
                    continue;
                }
                if (policyOf(rc.domain) ==
                        summary::DomainPolicy::Balanced &&
                    it->second != 0 &&
                    rootKindOf(rc.counter) != smt::ExprKind::Ret) {
                    // The pre-pass runs under the same accounting as the
                    // pairwise check: its feasibility query consumes the
                    // function's solver fuel (the solver is the caller's
                    // budget-attached one), and the domain-scoped
                    // failpoint lets the chaos suite fault exactly one
                    // domain's balance checking.
                    obs::FailpointScope domain_scope(rc.domain);
                    obs::failpoint("analysis.ipp.balanced");
                    if (!solver.isSat(entry.cons)) {
                        // Unreachable path: a leak on it is not a bug.
                        it = entry.changes.erase(it);
                        continue;
                    }
                    BugReport report;
                    report.function = function;
                    report.refcount = rc.counter.str();
                    report.domain = rc.domain;
                    report.kind = BugKind::Unbalanced;
                    report.delta_a = it->second;
                    report.cons_a = entry.cons.str();
                    report.lines_a = entry.origin.change_lines;
                    report.return_line_a = entry.origin.return_line;
                    report.callees_a = entry.origin.callees;
                    // The feasibility query is the report's deciding
                    // evidence, mirroring the overlap query below.
                    report.queries.push_back(solver.lastQuery());
                    result.reports.push_back(std::move(report));
                    it = entry.changes.erase(it);
                    continue;
                }
                ++it;
            }
        }
    }

    // Pairwise check. `entries` shrinks as inconsistent/merged entries
    // are removed, so indices restart after every mutation.
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < entries.size() && !changed; i++) {
            for (size_t j = i + 1; j < entries.size() && !changed; j++) {
                smt::Formula overlap =
                    entries[i].cons.land(entries[j].cons);
                if (!solver.isSat(overlap))
                    continue;
                // The query that just decided the pair overlaps is this
                // report's deciding evidence; snapshot it before any
                // further solver traffic overwrites lastQuery().
                smt::QueryInfo overlap_query = solver.lastQuery();
                if (!summary::SummaryEntry::sameStores(entries[i],
                                                       entries[j])) {
                    // Under the field-store extension the paths are
                    // distinguishable by their writes to caller-visible
                    // structures: not an IPP (and not mergeable either).
                    continue;
                }
                auto diffs = summary::SummaryEntry::changedDifferently(
                    entries[i], entries[j]);
                if (diffs.empty()) {
                    // Consistent overlap: merge with disjunction
                    // (Section 4.3).
                    summary::SummaryEntry merged =
                        summary::SummaryEntry::merge(entries[i],
                                                     entries[j]);
                    entries.erase(entries.begin() + j);
                    entries[i] = std::move(merged);
                    changed = true;
                    break;
                }
                // Only differences in ipp-policy domains form an IPP;
                // balanced-policy keys surviving the pre-pass are
                // legitimate (Ret-rooted, escaping to the caller).
                decltype(diffs) ipp_diffs;
                for (auto &d : diffs) {
                    if (policyOf(d.first.domain) ==
                        summary::DomainPolicy::Ipp)
                        ipp_diffs.push_back(std::move(d));
                }
                if (ipp_diffs.empty()) {
                    // Distinguished only by balanced-domain effects: not
                    // a bug, but not mergeable either (like entries with
                    // different store sets).
                    continue;
                }
                // Inconsistent path pair: report each counter that
                // differs, then drop one entry of the pair.
                for (const auto &[rc, deltas] : ipp_diffs) {
                    BugReport report;
                    report.function = function;
                    report.refcount = rc.counter.str();
                    report.domain = rc.domain;
                    report.delta_a = deltas.first;
                    report.delta_b = deltas.second;
                    report.cons_a = entries[i].cons.str();
                    report.cons_b = entries[j].cons.str();
                    report.lines_a = entries[i].origin.change_lines;
                    report.lines_b = entries[j].origin.change_lines;
                    report.return_line_a = entries[i].origin.return_line;
                    report.return_line_b = entries[j].origin.return_line;
                    report.callees_a = entries[i].origin.callees;
                    report.callees_b = entries[j].origin.callees;
                    report.queries.push_back(overlap_query);
                    result.reports.push_back(std::move(report));
                }
                // Drop one entry of the pair to stop cascading reports,
                // minimizing cross-domain information loss: an entry
                // whose counters all reappear in some surviving sibling
                // is redundant evidence, while one carrying the only
                // effect on a counter is the sole witness for it —
                // prefer dropping the covered entry.
                auto uncoveredKeys = [&entries](size_t victim) {
                    size_t uncovered = 0;
                    for (const auto &[rc, delta] : entries[victim].changes) {
                        (void)delta;
                        bool covered = false;
                        for (size_t k = 0; k < entries.size() && !covered;
                             k++) {
                            covered = k != victim &&
                                      entries[k].changes.count(rc);
                        }
                        if (!covered)
                            uncovered++;
                    }
                    return uncovered;
                };
                size_t drop = uncoveredKeys(j) <= uncoveredKeys(i) ? j : i;
                entries.erase(entries.begin() + drop);
                changed = true;
            }
        }
    }

    result.entries = std::move(entries);
    return result;
}

} // namespace rid::analysis
