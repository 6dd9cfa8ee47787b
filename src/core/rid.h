/**
 * @file
 * Public façade of the RID checker.
 *
 * Typical use:
 *
 *     rid::Rid tool;
 *     tool.loadSpecText(dpm_specs);          // refcount API specification
 *     tool.addSource(kernel_c_source);       // Kernel-C translation units
 *     rid::RunResult result = tool.run();
 *     for (const auto &report : result.reports)
 *         std::cout << report.str() << "\n";
 *
 * The only required configuration is the set of predefined summaries for
 * the basic refcount APIs (Section 5.1); wrappers are summarized
 * automatically.
 *
 * Memory follows Section 5.2's classification: addSource() keeps each
 * function's skeleton and its span of the retained source, and keeps
 * IR only for direct callers of the refcount APIs (category 1). Any
 * other function is lowered again only when something reads its IR
 * (classification of category-1 bodies, selection of category-2 ones,
 * the analyzer, --dump-ir, --dot-cfg). Category-3 code is never
 * lowered twice.
 */

#ifndef RID_CORE_RID_H
#define RID_CORE_RID_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "frontend/lower.h"
#include "ir/function.h"
#include "obs/profile.h"
#include "obs/provenance.h"
#include "summary/db.h"
#include "triage/triage.h"

namespace rid {

/** A translation unit rejected during tolerant loading: its file-level
 *  fault (syntax error, IR verification failure) was isolated so the
 *  remaining files could still be analyzed. */
struct FileDiagnostic
{
    std::string file;
    std::string reason;
};

/** Result of one analysis run. */
struct RunResult
{
    std::vector<analysis::BugReport> reports;
    analysis::AnalyzerStats stats;
    /** Post-run cost attribution: the profile_top_n hottest functions
     *  by per-phase wall time, solver time and path count (empty when
     *  AnalyzerOptions::profile_top_n == 0). */
    obs::AnalysisProfile profile;
    /** Per-function degradation records (name-sorted; empty in a fully
     *  clean run). Functions not listed ended plainly Ok. */
    std::vector<analysis::FunctionDiagnostic> diagnostics;
    /** Files rejected by addSourceTolerant() before this run. */
    std::vector<FileDiagnostic> file_errors;
    /** Triage-pass accounting (triage.ran is false — and every report
     *  stays Untriaged with rank 0 — unless AnalyzerOptions::triage was
     *  set). When it ran, `reports` is ordered by rank. */
    triage::TriageStats triage;

    /** Human-readable multi-line report. */
    std::string str() const;

    /**
     * Machine-readable stats export (one JSON object, schema documented
     * in DESIGN.md "Solver query cache" and "Observability"): report
     * count, function category counters, per-phase wall times,
     * aggregated solver counters, query-cache effectiveness and the
     * analysis profile. Additions are strictly additive — existing
     * keys never change meaning. Consumed by
     * bench/bench_performance.cpp to emit BENCH_performance.json.
     */
    std::string statsJson() const;
};

/**
 * Convert a run's bug reports into provenance records (obs/provenance.h):
 * stable fingerprint, witness path pair, deciding solver queries,
 * callee-summary chains, and each reporting function's degradation status
 * pulled from @p diagnostics. Pure conversion — Rid::run() uses it to
 * write the journal gated by AnalyzerOptions::provenance_path, and tests
 * use it directly.
 */
std::vector<obs::ProvenanceRecord>
provenanceRecords(const std::vector<analysis::BugReport> &reports,
                  const std::vector<analysis::FunctionDiagnostic> &diagnostics);

/** Convenience overload over a finished run. */
std::vector<obs::ProvenanceRecord> provenanceRecords(const RunResult &result);

class Rid
{
  public:
    explicit Rid(analysis::AnalyzerOptions opts = {},
                 frontend::LowerOptions lower_opts = {});

    /** Load predefined API summaries from spec text (Section 5.1 format).
     *  @throws summary::SpecError on malformed specs. */
    void loadSpecText(const std::string &text);

    /** Load predefined API summaries from a spec file.
     *  @throws std::runtime_error if unreadable, SpecError if malformed. */
    void loadSpecFile(const std::string &path);

    /**
     * Fault-isolating variant of loadSpecText(): a malformed spec (bad
     * syntax, unknown domain reference, conflicting domain policy,
     * duplicate summary) is rejected whole and recorded as a
     * FileDiagnostic on the next run()'s RunResult instead of aborting.
     * @return true if the spec loaded, false if it was rejected
     */
    bool loadSpecTolerant(const std::string &name, const std::string &text);

    /**
     * Parse and add a Kernel-C translation unit. The unit is parsed and
     * lowered whole, so every check that rejects a file runs here, but
     * the module keeps only its functions' skeletons (and the IR of
     * those that call a refcount API loaded so far): a function's IR is
     * rebuilt from its span of the kept source (moved, not copied) when
     * something first reads it, with the LowerOptions this Rid was built
     * with. A unit that throws adds nothing.
     * @throws frontend::ParseError on syntax errors.
     */
    void addSource(std::string kernel_c_source);

    /**
     * Fault-isolating variant of addSource(): a file that fails to parse
     * or lower is skipped and recorded as a FileDiagnostic on the next
     * run()'s RunResult instead of aborting the whole scan.
     * @return true if the unit was added, false if it was rejected
     */
    bool addSourceTolerant(const std::string &name,
                           std::string kernel_c_source);

    /** Record @p file as rejected before it reached the frontend (for
     *  instance because it could not be read); it is reported like a
     *  file addSourceTolerant() rejected. */
    void rejectFile(std::string file, std::string reason);

    /** Files rejected by addSourceTolerant() or rejectFile() so far. */
    const std::vector<FileDiagnostic> &fileDiagnostics() const
    {
        return file_errors_;
    }

    /** Import previously computed summaries (separate-file analysis,
     *  Section 5.3). */
    void importSummaries(const std::string &spec_text);

    /** Export the summaries computed by run() for reuse, defaults
     *  included. */
    std::string exportSummaries() const;

    /** Run the analysis over everything added so far. A Rid runs once:
     *  a second call throws std::logic_error. */
    RunResult run();

    /** Access the loaded module (e.g. to print IR; reading a function's
     *  IR builds it). */
    const ir::Module &module() const { return module_; }

    /** Access the summary database (specs + computed summaries). */
    const summary::SummaryDb &summaries() const { return db_; }

    analysis::AnalyzerOptions &options() { return opts_; }

  private:
    analysis::AnalyzerOptions opts_;
    ir::Module module_;
    summary::SummaryDb db_;
    std::vector<FileDiagnostic> file_errors_;
    /** The LowerOptions and every successfully added unit's source: the
     *  module's Lowering hook, and the sources the triage pass re-lowers
     *  reported functions from. Defined in rid.cc. */
    struct Retained;
    std::shared_ptr<Retained> retained_;
    /** The names whose summaries change a counter, as addSource() keeps
     *  their direct callers' IR; reset whenever summaries load. */
    std::optional<std::vector<ir::Name>> load_seeds_;
    /** run() has started; a second call throws. */
    bool ran_ = false;
};

} // namespace rid

#endif // RID_CORE_RID_H
