/**
 * @file
 * Call graph with Tarjan SCC condensation and topological ordering.
 *
 * The summary-based analysis traverses functions in reverse topological
 * order of the call graph (callees before callers); recursive cycles are
 * broken by grouping them into strongly connected components and analyzing
 * the members in an arbitrary (deterministic) order, with calls into the
 * not-yet-summarized part of the cycle falling back to default summaries
 * (Section 4.2). The SCC DAG is also stratified into levels so independent
 * components can be analyzed in parallel (Section 5.3).
 */

#ifndef RID_ANALYSIS_CALLGRAPH_H
#define RID_ANALYSIS_CALLGRAPH_H

#include <map>
#include <string>
#include <vector>

#include "ir/function.h"

namespace rid::analysis {

class CallGraph
{
  public:
    /** Build from a module; every defined or declared function is a node,
     *  and call targets without any declaration get synthetic nodes.
     *  Node k < mod.size() is mod.functions()[k] (module order), so a
     *  caller can index its own per-function tables by node; the
     *  synthetic nodes come after them. */
    explicit CallGraph(const ir::Module &mod);

    /** Number of nodes. */
    size_t size() const { return names_.size(); }

    const std::string &nameOf(int node) const { return names_.at(node); }
    int nodeOf(const std::string &name) const;

    /** Direct callees of a node. */
    const std::vector<int> &calleesOf(int node) const
    {
        return edges_.at(node);
    }

    /** Direct callers of a node. */
    const std::vector<int> &callersOf(int node) const
    {
        return redges_.at(node);
    }

    /** SCC id of a node (0-based; ids are in reverse topological order:
     *  callees have smaller ids than their callers). */
    int sccOf(int node) const { return scc_of_.at(node); }

    size_t numSccs() const { return sccs_.size(); }

    /** Members of an SCC. */
    const std::vector<int> &sccMembers(int scc) const
    {
        return sccs_.at(scc);
    }

    /**
     * Nodes in reverse topological order (callees first). Members of a
     * cycle appear consecutively in deterministic order.
     */
    std::vector<int> reverseTopoOrder() const;

    /**
     * Stratify SCCs into levels: an SCC's level is 1 + the max level of
     * the SCCs it calls into (level 0 SCCs call nothing unanalyzed). All
     * SCCs in one level can be analyzed concurrently once previous levels
     * are done.
     */
    std::vector<std::vector<int>> sccLevels() const;

  private:
    int intern(const std::string &name);

    std::vector<std::string> names_;
    std::map<std::string, int> ids_;
    std::vector<std::vector<int>> edges_;
    std::vector<std::vector<int>> redges_;
    std::vector<int> scc_of_;
    std::vector<std::vector<int>> sccs_;
};

} // namespace rid::analysis

#endif // RID_ANALYSIS_CALLGRAPH_H
