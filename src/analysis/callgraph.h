/**
 * @file
 * Call graph with Tarjan SCC condensation and topological ordering.
 *
 * The summary-based analysis traverses functions in reverse topological
 * order of the call graph (callees before callers); recursive cycles are
 * broken by grouping them into strongly connected components and analyzing
 * the members in an arbitrary (deterministic) order, with calls into the
 * not-yet-summarized part of the cycle falling back to default summaries
 * (Section 4.2). SCC ids are reverse-topological, so the analyzer's
 * scheduler can release an SCC once its callee SCCs are done and run
 * independent components in parallel (Section 5.3).
 *
 * Function identity: node k < mod.size() is module function k, and call
 * targets without any declaration get nodes after them, in first-call
 * order. The graph is built from the module's skeletons, so it reads no
 * IR: it borrows their names and resolves their callees through
 * Module::indexOf, the one name lookup; only the undeclared targets have
 * a (small) name table of their own.
 */

#ifndef RID_ANALYSIS_CALLGRAPH_H
#define RID_ANALYSIS_CALLGRAPH_H

#include <string>
#include <unordered_map>
#include <vector>

#include "ir/function.h"

namespace rid::analysis {

/**
 * Strongly connected components of the graph whose node k has the
 * successors @p edges[k], each with its members sorted, in reverse
 * topological order of the condensation: a component comes after every
 * component it reaches. Iterative, so deep chains do not overflow the
 * stack.
 */
std::vector<std::vector<int>>
stronglyConnected(const std::vector<std::vector<int>> &edges);

class CallGraph
{
  public:
    /** Build from a module; every defined or declared function is a node,
     *  and call targets without any declaration get synthetic nodes.
     *  Node k < mod.size() is module function k (module order), so a
     *  caller can index its own per-function tables by node; the
     *  synthetic nodes come after them. @p mod must outlive the graph
     *  and stay unchanged while it is used. */
    explicit CallGraph(const ir::Module &mod);

    /** Number of nodes. */
    size_t size() const { return edges_.size(); }

    /** @throws std::out_of_range for a node outside [0, size()). */
    const std::string &nameOf(int node) const;
    /** Node of @p name, or -1 when no function or call target has it. */
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

  private:
    /** Node of call target @p name, minting a synthetic node for a name
     *  the module does not declare. */
    int resolve(const std::string &name);

    const ir::Module &mod_;
    /** Undeclared call targets: node mod_.size() + k is undeclared_[k]. */
    std::vector<std::string> undeclared_;
    std::unordered_map<std::string, int> undeclaredIds_;
    std::vector<std::vector<int>> edges_;
    std::vector<std::vector<int>> redges_;
    std::vector<int> scc_of_;
    std::vector<std::vector<int>> sccs_;
};

} // namespace rid::analysis

#endif // RID_ANALYSIS_CALLGRAPH_H
