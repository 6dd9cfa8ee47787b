/**
 * @file
 * Function classification for large-scale analysis (Section 5.2).
 *
 * Functions fall into three categories:
 *   1. Functions with refcount changes — they (transitively) call the
 *      refcount APIs. These are fully analyzed.
 *   2. Functions affecting those with refcount changes — refcount-free,
 *      but some caller passes their return value into the backward slice
 *      of a category-1 call. These are analyzed selectively (only when
 *      simple enough, by conditional-branch count).
 *   3. Everything else — ignored.
 *
 * Classification is a two-phase pass over the call graph: phase one
 * propagates "has refcount changes" from the API seeds in one sweep over
 * the SCC condensation, callees first (a cycle's members share the
 * answer); phase two walks callers in topological order,
 * slicing each category-1/2 function on its return values and the actual
 * arguments of category-1 calls, and marks callees invoked inside the
 * slice as category 2.
 *
 * Phase one needs only the call graph's edges, which come from the
 * module's skeletons; phase two is the only reader of IR, and reads it
 * for category-1 definitions alone, so no category-3 function is ever
 * built (see ir::Module).
 *
 * Function identity: categories are stored per call-graph node, and node
 * k is module function k (see CallGraph). A name resolves through
 * Module::indexOf; the classifier keeps no name table of its own.
 */

#ifndef RID_ANALYSIS_CLASSIFIER_H
#define RID_ANALYSIS_CLASSIFIER_H

#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "ir/function.h"

namespace rid::analysis {

enum class Category : uint8_t {
    RefcountChanging,   ///< category 1
    Affecting,          ///< category 2
    Other,              ///< category 3
};

struct ClassifierStats
{
    size_t refcount_changing = 0;
    size_t affecting = 0;
    size_t other = 0;
};

class FunctionClassifier
{
  public:
    /**
     * Classify every function of @p mod over its call graph @p cg (only
     * read during construction).
     *
     * @param seeds names of the refcount APIs (functions whose predefined
     *              summaries change refcounts)
     */
    FunctionClassifier(const ir::Module &mod, const CallGraph &cg,
                       const std::vector<std::string> &seeds);

    /** As above, over a call graph built from @p mod for the purpose. */
    FunctionClassifier(const ir::Module &mod,
                       const std::vector<std::string> &seeds);

    /** Category of call-graph node @p node: Other for an undeclared
     *  call target or a node out of range. */
    Category categoryOf(int node) const;
    Category categoryOf(const std::string &fn) const;

    ClassifierStats stats() const;

    /** All functions of a given category, in module order. */
    std::vector<std::string> functionsIn(Category c) const;

  private:
    const ir::Module &mod_;
    /** Category of module function k (call-graph node k). */
    std::vector<Category> categories_;
};

} // namespace rid::analysis

#endif // RID_ANALYSIS_CLASSIFIER_H
