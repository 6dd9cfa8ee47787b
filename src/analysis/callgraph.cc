#include "analysis/callgraph.h"

#include <algorithm>

namespace rid::analysis {

int
CallGraph::resolve(const std::string &name)
{
    int k = mod_.indexOf(name);
    if (k >= 0)
        return k;
    auto [it, added] =
        undeclaredIds_.try_emplace(name, static_cast<int>(edges_.size()));
    if (added) {
        undeclared_.push_back(name);
        edges_.emplace_back();
        redges_.emplace_back();
    }
    return it->second;
}

CallGraph::CallGraph(const ir::Module &mod)
    : mod_(mod), edges_(mod.size()), redges_(mod.size())
{
    // Skeleton callees are already distinct and in first-call order, and
    // distinct names are distinct nodes.
    for (int from = 0; from < static_cast<int>(mod.size()); from++) {
        for (ir::Name callee : mod.skeleton(from).callees()) {
            int to = resolve(callee);
            edges_[from].push_back(to);
            redges_[to].push_back(from);
        }
    }

    sccs_ = stronglyConnected(edges_);
    scc_of_.assign(edges_.size(), -1);
    for (size_t scc = 0; scc < sccs_.size(); scc++)
        for (int w : sccs_[scc])
            scc_of_[w] = static_cast<int>(scc);
}

const std::string &
CallGraph::nameOf(int node) const
{
    if (node >= 0 && static_cast<size_t>(node) < mod_.size())
        return mod_.skeleton(node).name.str();
    return undeclared_.at(static_cast<size_t>(node) - mod_.size());
}

int
CallGraph::nodeOf(const std::string &name) const
{
    int k = mod_.indexOf(name);
    if (k >= 0)
        return k;
    auto it = undeclaredIds_.find(name);
    return it == undeclaredIds_.end() ? -1 : it->second;
}

std::vector<std::vector<int>>
stronglyConnected(const std::vector<std::vector<int>> &edges)
{
    // Tarjan's SCC algorithm, iterative to survive deep call chains.
    const int n = static_cast<int>(edges.size());
    std::vector<std::vector<int>> sccs;
    std::vector<int> index(n, -1), lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<int> stack;
    int next_index = 0;

    struct Frame
    {
        int node;
        size_t child = 0;
    };

    for (int root = 0; root < n; root++) {
        if (index[root] != -1)
            continue;
        std::vector<Frame> frames{{root, 0}};
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = true;
        while (!frames.empty()) {
            Frame &f = frames.back();
            if (f.child < edges[f.node].size()) {
                int child = edges[f.node][f.child++];
                if (index[child] == -1) {
                    index[child] = lowlink[child] = next_index++;
                    stack.push_back(child);
                    on_stack[child] = true;
                    frames.push_back({child, 0});
                } else if (on_stack[child]) {
                    lowlink[f.node] =
                        std::min(lowlink[f.node], index[child]);
                }
            } else {
                if (lowlink[f.node] == index[f.node]) {
                    std::vector<int> members;
                    while (true) {
                        int w = stack.back();
                        stack.pop_back();
                        on_stack[w] = false;
                        members.push_back(w);
                        if (w == f.node)
                            break;
                    }
                    std::sort(members.begin(), members.end());
                    sccs.push_back(std::move(members));
                }
                int node = f.node;
                frames.pop_back();
                if (!frames.empty()) {
                    lowlink[frames.back().node] =
                        std::min(lowlink[frames.back().node],
                                 lowlink[node]);
                }
            }
        }
    }
    // Tarjan emits an SCC only after everything it reaches, so the list
    // is in reverse topological order of the condensation.
    return sccs;
}

} // namespace rid::analysis
