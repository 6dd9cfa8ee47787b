#include "core/report_format.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "obs/json_writer.h"
#include "obs/provenance.h"

namespace rid {

namespace {

void
writeIntArray(obs::JsonWriter &w, const std::vector<int> &values)
{
    w.beginArray();
    for (int v : values)
        w.value(v);
    w.endArray();
}

void
writeReport(obs::JsonWriter &w, const analysis::BugReport &report)
{
    w.beginObject();
    w.key("function").value(report.function);
    w.key("refcount").value(report.refcount);
    w.key("delta_a").value(report.delta_a);
    w.key("delta_b").value(report.delta_b);
    w.key("cons_a").value(report.cons_a);
    w.key("cons_b").value(report.cons_b);
    w.key("lines_a");
    writeIntArray(w, report.lines_a);
    w.key("lines_b");
    writeIntArray(w, report.lines_b);
    w.key("return_line_a").value(report.return_line_a);
    w.key("return_line_b").value(report.return_line_b);
    // Additive keys, emitted only for non-default values so ref-domain
    // inconsistency reports stay byte-identical to the pre-domain schema.
    if (report.domain != summary::kRefDomain ||
        report.kind != analysis::BugKind::Inconsistent) {
        w.key("domain").value(report.domain);
        w.key("kind").value(report.kind == analysis::BugKind::Unbalanced
                                ? "unbalanced"
                                : "inconsistent");
    }
    // Additive key: the stable report identity (0 means unstamped —
    // e.g. a BugReport constructed directly in tests).
    if (report.fingerprint)
        w.key("fingerprint").value(obs::fpHex(report.fingerprint));
    // Additive keys, present only once the triage pass stamped a tier;
    // pre-triage JSON stays byte-identical.
    if (report.tier != analysis::Tier::Untriaged) {
        w.key("tier").value(analysis::tierName(report.tier));
        w.key("rank").value(report.rank);
    }
    w.endObject();
}

} // anonymous namespace

std::string
toJson(const analysis::BugReport &report)
{
    obs::JsonWriter w;
    writeReport(w, report);
    return w.str();
}

std::string
toJson(const RunResult &result)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("reports").beginArray();
    for (const auto &report : result.reports)
        writeReport(w, report);
    w.endArray();
    w.key("stats").beginObject();
    w.key("refcount_changing")
        .value(uint64_t{result.stats.categories.refcount_changing});
    w.key("affecting").value(uint64_t{result.stats.categories.affecting});
    w.key("other").value(uint64_t{result.stats.categories.other});
    w.key("functions_analyzed")
        .value(uint64_t{result.stats.functions_analyzed});
    w.key("functions_defaulted")
        .value(uint64_t{result.stats.functions_defaulted});
    w.key("functions_truncated")
        .value(uint64_t{result.stats.functions_truncated});
    w.key("paths_enumerated")
        .value(uint64_t{result.stats.paths_enumerated});
    w.key("entries_computed")
        .value(uint64_t{result.stats.entries_computed});
    w.key("classify_seconds").value(result.stats.classify_seconds);
    w.key("analyze_seconds").value(result.stats.analyze_seconds);
    w.endObject();
    // Additive key: degradation records (empty arrays in a clean run).
    writeDiagnostics(w, "diagnostics", result.diagnostics, "file_errors",
                     result.file_errors);
    w.endObject();
    return w.str();
}

void
writeDiagnostics(obs::JsonWriter &w, const char *functions_key,
                 const std::vector<analysis::FunctionDiagnostic> &functions,
                 const char *files_key,
                 const std::vector<FileDiagnostic> &files)
{
    w.key(functions_key).beginArray();
    for (const auto &d : functions) {
        w.beginObject();
        w.key("function").value(d.function);
        w.key("status").value(analysis::fnStatusName(d.status));
        w.key("reason").value(d.reason);
        w.endObject();
    }
    w.endArray();
    w.key(files_key).beginArray();
    for (const auto &f : files) {
        w.beginObject();
        w.key("file").value(f.file);
        w.key("reason").value(f.reason);
        w.endObject();
    }
    w.endArray();
}

std::string
groupedText(const RunResult &result)
{
    std::map<std::string, std::vector<const analysis::BugReport *>>
        by_function;
    for (const auto &report : result.reports)
        by_function[report.function].push_back(&report);

    std::vector<std::pair<std::string, size_t>> order;
    for (const auto &[fn, reports] : by_function)
        order.push_back({fn, reports.size()});
    std::sort(order.begin(), order.end(), [](const auto &a, const auto &b) {
        return a.second != b.second ? a.second > b.second
                                    : a.first < b.first;
    });

    std::ostringstream os;
    os << result.reports.size() << " report(s) in " << by_function.size()
       << " function(s)\n";
    for (const auto &[fn, count] : order) {
        os << "\n" << fn << " (" << count << "):\n";
        for (const auto *report : by_function[fn]) {
            const char *noun = report->domain == summary::kRefDomain
                                   ? "refcount"
                                   : report->domain.c_str();
            if (report->kind == analysis::BugKind::Unbalanced) {
                os << "  " << noun << " " << report->refcount << ": "
                   << (report->delta_a >= 0 ? "+" : "")
                   << report->delta_a << " unbalanced at return\n";
                os << "    when " << report->cons_a << "\n";
                continue;
            }
            os << "  " << noun << " " << report->refcount << ": "
               << (report->delta_a >= 0 ? "+" : "") << report->delta_a
               << " vs " << (report->delta_b >= 0 ? "+" : "")
               << report->delta_b << "\n";
            os << "    when " << report->cons_a << "\n";
            os << "    vs   " << report->cons_b << "\n";
        }
    }
    os << "\nfunctions: " << result.stats.categories.refcount_changing
       << " refcount-changing, " << result.stats.categories.affecting
       << " affecting, " << result.stats.categories.other << " others; "
       << result.stats.functions_analyzed << " analyzed, "
       << result.stats.paths_enumerated << " paths\n";
    size_t degraded = result.stats.functions_timeout +
                      result.stats.functions_degraded +
                      result.stats.functions_error;
    if (degraded + result.file_errors.size() > 0) {
        os << "degraded: " << result.stats.functions_timeout
           << " timeout, " << result.stats.functions_degraded
           << " fault-isolated, " << result.stats.functions_error
           << " error, " << result.file_errors.size()
           << " file(s) rejected\n";
    }
    return os.str();
}

} // namespace rid
