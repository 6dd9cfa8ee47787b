/**
 * @file
 * Textual format for API specifications and saved summaries.
 *
 * Predefined summaries (Section 5.1) are written in a small declarative
 * language; the same format is used to persist computed summaries to disk
 * for separate-file analysis (Section 5.3). Example:
 *
 *     # Linux DPM: always increments, regardless of the return value.
 *     summary pm_runtime_get_sync(dev) -> int {
 *       entry { cons: true; change: [dev].pm += 1; return: [0]; }
 *     }
 *
 *     summary PyList_New(len) -> ptr {
 *       entry { cons: [0] != null; change: [0].rc += 1; return: [0]; }
 *       entry { cons: [0] == null; return: null; }
 *     }
 *
 * Constraints use the paper's notation: `[name]` is a formal argument,
 * `[0]` the return value, `.field` a field access, `%name` an
 * analysis-generated atom, a bare identifier a local, and `null` the null
 * pointer. `-> void` marks functions without a return value; `-> int` and
 * `-> ptr` are synonyms for value-returning functions.
 *
 * Effect domains (see summary/domain.h) are declared at the top level and
 * referenced by tagging a change effect:
 *
 *     domain lock { policy: balanced; }
 *     summary spin_lock(l) -> void {
 *       entry { cons: true; change(lock): [l].held += 1; return: none; }
 *     }
 *
 * An untagged `change:` belongs to the builtin `ref` domain. Referencing
 * an undeclared domain, redeclaring a domain with a different policy, or
 * declaring two summaries for the same function is a SpecError.
 */

#ifndef RID_SUMMARY_SPEC_H
#define RID_SUMMARY_SPEC_H

#include <stdexcept>
#include <string>
#include <vector>

#include "summary/db.h"
#include "summary/summary.h"

namespace rid::summary {

/** Error raised for malformed spec text; carries a line number. */
class SpecError : public std::runtime_error
{
  public:
    SpecError(std::string msg, int line)
        : std::runtime_error("spec:" + std::to_string(line) + ": " + msg),
          line_(line)
    {}
    int line() const { return line_; }

  private:
    int line_;
};

/** A parsed spec: the summary plus the declared signature. */
struct ParsedSummary
{
    FunctionSummary summary;
    std::vector<std::string> params;
    bool returns_value = false;
    /** Line of the `summary` keyword (for duplicate diagnostics). */
    int line = 0;
};

/** Result of parsing one spec text: domain declarations in declaration
 *  order (builtin `ref` not included unless redeclared) and summaries. */
struct ParsedSpec
{
    std::vector<DomainInfo> domains;
    std::vector<ParsedSummary> summaries;
};

/**
 * Parse spec text into domain declarations and summaries. `change(d)`
 * tags must reference a domain declared earlier in the same text, the
 * builtin `ref`, or a member of @p known (pre-declared domains, e.g.
 * from specs already loaded into the target db).
 * @throws SpecError on malformed input, an unknown domain reference, a
 *         conflicting domain redeclaration or a duplicate summary.
 */
ParsedSpec parseSpecText(const std::string &text,
                         const DomainTable *known = nullptr);

/** Parse spec text, register its domain declarations and every summary
 *  as predefined in @p db.
 *  @throws SpecError also when a summary name is already predefined. */
void loadSpecsInto(const std::string &text, SummaryDb &db);

/** Serialize one summary in the spec format (round-trips via parseSpecText).
 *  Formal parameter names are recovered from argument atoms. */
std::string serializeSummary(const FunctionSummary &s);

} // namespace rid::summary

#endif // RID_SUMMARY_SPEC_H
