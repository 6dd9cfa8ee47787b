/**
 * @file
 * Graphviz (DOT) exports for the analysis data structures: function
 * CFGs and the call graph with SCC clusters and category coloring.
 * Intended for debugging analyses and for documentation; `ridc --dot-*`
 * exposes them on the command line.
 */

#ifndef RID_ANALYSIS_DOT_H
#define RID_ANALYSIS_DOT_H

#include <string>

#include "analysis/callgraph.h"
#include "analysis/classifier.h"
#include "ir/function.h"

namespace rid::analysis {

/** Render one function's control flow graph. */
std::string cfgToDot(const ir::Function &fn);

/**
 * Render the call graph; SCCs with more than one member become
 * clusters. When @p classifier is given, nodes are colored by category
 * (refcount-changing / affecting / other).
 */
std::string callGraphToDot(const CallGraph &cg,
                           const FunctionClassifier *classifier = nullptr);

} // namespace rid::analysis

#endif // RID_ANALYSIS_DOT_H
