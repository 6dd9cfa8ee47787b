#include "analysis/filegraph.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "frontend/parser.h"
#include "obs/failpoint.h"

namespace rid::analysis {

FileGraph::FileGraph(std::vector<FileSymbols> files)
    : files_(std::move(files))
{
    // Map every defined symbol to its defining file. With duplicate
    // definitions (the paper's "static functions defined in headers"
    // problem) the first definition wins, mirroring Module::commit's
    // weak-symbol-style merging.
    std::map<std::string, int> defined_in;
    for (size_t i = 0; i < files_.size(); i++) {
        index_[files_[i].name] = static_cast<int>(i);
        for (const auto &symbol : files_[i].defines)
            defined_in.emplace(symbol, static_cast<int>(i));
    }
    deps_.assign(files_.size(), {});
    for (size_t i = 0; i < files_.size(); i++) {
        std::set<int> targets;
        for (const auto &symbol : files_[i].uses) {
            auto it = defined_in.find(symbol);
            if (it != defined_in.end() &&
                it->second != static_cast<int>(i)) {
                targets.insert(it->second);
            }
        }
        deps_[i].assign(targets.begin(), targets.end());
    }
}

std::vector<std::string>
FileGraph::dependenciesOf(const std::string &file) const
{
    std::vector<std::string> out;
    auto it = index_.find(file);
    if (it == index_.end())
        return out;
    for (int dep : deps_[it->second])
        out.push_back(files_[dep].name);
    return out;
}

FileSchedule
FileGraph::schedule() const
{
    const int n = static_cast<int>(files_.size());

    // Tarjan SCC over the dependency edges (iterative).
    std::vector<int> scc_of(n, -1), index(n, -1), lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<int> stack;
    std::vector<std::vector<int>> sccs;
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
            if (f.child < deps_[f.node].size()) {
                int child = deps_[f.node][f.child++];
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
                    for (int w : members)
                        scc_of[w] = static_cast<int>(sccs.size());
                    sccs.push_back(std::move(members));
                }
                int node = f.node;
                frames.pop_back();
                if (!frames.empty()) {
                    lowlink[frames.back().node] = std::min(
                        lowlink[frames.back().node], lowlink[node]);
                }
            }
        }
    }

    // Stratify: an SCC's level is one above the deepest SCC it depends
    // on. Tarjan emits SCCs in reverse topological order of the
    // dependency edges, so a single pass suffices.
    std::vector<int> level(sccs.size(), 0);
    for (size_t s = 0; s < sccs.size(); s++) {
        for (int member : sccs[s]) {
            for (int dep : deps_[member]) {
                int ds = scc_of[dep];
                if (ds != static_cast<int>(s))
                    level[s] = std::max(level[s], level[ds] + 1);
            }
        }
    }
    int max_level = 0;
    for (int l : level)
        max_level = std::max(max_level, l);

    FileSchedule schedule;
    schedule.levels.resize(max_level + 1);
    for (size_t s = 0; s < sccs.size(); s++) {
        FileBatch batch;
        for (int member : sccs[s])
            batch.files.push_back(files_[member].name);
        schedule.levels[level[s]].push_back(std::move(batch));
    }
    return schedule;
}

FileSymbols
scanFileSymbols(const std::string &name, const std::string &source)
{
    FileSymbols out;
    out.name = name;
    frontend::AstUnit unit = frontend::parseUnit(source);
    for (const auto &fn : unit.functions) {
        if (!fn.is_definition)
            continue;
        out.defines.insert(fn.name);
        frontend::forEachExpr(*fn.body, [&](const frontend::AstExpr &e) {
            if (e.kind == frontend::AstExprKind::Call && e.a &&
                e.a->kind == frontend::AstExprKind::Ident) {
                out.uses.insert(e.a->text);
            }
        });
    }
    return out;
}

FileScanResult
scanFiles(const std::vector<std::pair<std::string, std::string>> &sources)
{
    FileScanResult result;
    for (const auto &[name, source] : sources) {
        obs::FailpointScope fp_scope(name);
        try {
            result.files.push_back(scanFileSymbols(name, source));
        } catch (const std::exception &e) {
            result.errors.push_back(FileScanError{name, e.what()});
        }
    }
    return result;
}

} // namespace rid::analysis
