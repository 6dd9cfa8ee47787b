#include "analysis/filegraph.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "analysis/callgraph.h"
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

    const std::vector<std::vector<int>> sccs = stronglyConnected(deps_);
    std::vector<int> scc_of(n, -1);
    for (size_t s = 0; s < sccs.size(); s++)
        for (int member : sccs[s])
            scc_of[member] = static_cast<int>(s);

    // Stratify: an SCC's level is one above the deepest SCC it depends
    // on. The SCCs come in reverse topological order of the dependency
    // edges, so a single pass suffices.
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
