/**
 * @file
 * Report rendering: grouped plain text and machine-readable JSON.
 *
 * The analysis produces one BugReport per inconsistent refcount; tooling
 * usually wants them grouped by function and consumable by scripts. This
 * module renders a RunResult either as a human-oriented grouped listing
 * or as a self-contained JSON document (reports, statistics, tool
 * configuration echoes).
 */

#ifndef RID_CORE_REPORT_FORMAT_H
#define RID_CORE_REPORT_FORMAT_H

#include <string>
#include <vector>

#include "core/rid.h"
#include "obs/json_writer.h"

namespace rid {

/** Render one report as a JSON object. */
std::string toJson(const analysis::BugReport &report);

/** Render a full run (reports + statistics) as a JSON document. */
std::string toJson(const RunResult &result);

/** Write @p functions as an array of {function, status, reason} objects
 *  under @p functions_key, then @p files as an array of {file, reason}
 *  objects under @p files_key: the degradation records of toJson() and
 *  RunResult::statsJson(). */
void writeDiagnostics(
    obs::JsonWriter &w, const char *functions_key,
    const std::vector<analysis::FunctionDiagnostic> &functions,
    const char *files_key, const std::vector<FileDiagnostic> &files);

/**
 * Render a run as a grouped listing: reports bucketed per function,
 * functions ordered by report count (most first), with the analysis
 * statistics as a trailer.
 */
std::string groupedText(const RunResult &result);

} // namespace rid

#endif // RID_CORE_REPORT_FORMAT_H
