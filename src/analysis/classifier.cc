#include "analysis/classifier.h"

#include <algorithm>
#include <ranges>

#include "analysis/slicer.h"
#include "obs/trace.h"

namespace rid::analysis {

FunctionClassifier::FunctionClassifier(
    const ir::Module &mod, const std::vector<std::string> &seeds)
    : FunctionClassifier(mod, CallGraph(mod), seeds)
{}

FunctionClassifier::FunctionClassifier(
    const ir::Module &mod, const CallGraph &cg,
    const std::vector<std::string> &seeds)
    : mod_(mod)
{
    obs::Span span("phase", "classify-module");
    span.arg("functions", std::to_string(cg.size()));

    const size_t n = cg.size();
    std::vector<bool> rc_changing(n, false);
    for (const auto &seed : seeds) {
        int node = cg.nodeOf(seed);
        if (node >= 0)
            rc_changing[node] = true;
    }

    // Phase 1: one sweep over the SCC condensation, callees first (SCC
    // ids are reverse-topological). An SCC is refcount-changing when any
    // member is a seed or calls a refcount-changing node; its members all
    // reach each other, so they share the answer.
    const int num_sccs = static_cast<int>(cg.numSccs());
    auto changes = [&](int node) {
        return rc_changing[node] ||
               std::ranges::any_of(cg.calleesOf(node), [&](int callee) {
                   return rc_changing[callee];
               });
    };
    for (int scc = 0; scc < num_sccs; scc++) {
        const std::vector<int> &members = cg.sccMembers(scc);
        if (std::ranges::any_of(members, changes))
            for (int node : members)
                rc_changing[node] = true;
    }

    // Phase 2: in topological order (callers first), slice every
    // refcount-changing function on its return values and the actual
    // arguments of refcount-changing calls; callees invoked inside the
    // slice become category 2.
    std::vector<bool> affecting(n, false);
    for (int scc = num_sccs - 1; scc >= 0; scc--) {
        for (int node : cg.sccMembers(scc) | std::views::reverse) {
            if (!rc_changing[node] ||
                static_cast<size_t>(node) >= mod_.size() ||
                mod_.skeleton(node).declaration)
                continue;
            const ir::Function &fn = mod_.function(node);
            auto isRcCall = [&](const ir::Instruction &in) {
                int callee = cg.nodeOf(in.callee);
                return callee >= 0 && rc_changing[callee];
            };
            auto slice =
                backwardSlice(fn, /*include_returns=*/true, isRcCall);
            for (const auto &ref : slice) {
                const auto &in = fn.block(ref.block).instrs[ref.index];
                if (in.op != ir::Opcode::Call)
                    continue;
                int callee = cg.nodeOf(in.callee);
                if (callee >= 0 && !rc_changing[callee])
                    affecting[callee] = true;
            }
        }
    }

    categories_.resize(mod_.size(), Category::Other);
    for (size_t k = 0; k < categories_.size(); k++) {
        if (rc_changing[k])
            categories_[k] = Category::RefcountChanging;
        else if (affecting[k])
            categories_[k] = Category::Affecting;
    }
}

Category
FunctionClassifier::categoryOf(int node) const
{
    return node >= 0 && static_cast<size_t>(node) < categories_.size()
               ? categories_[node]
               : Category::Other;
}

Category
FunctionClassifier::categoryOf(const std::string &fn) const
{
    return categoryOf(mod_.indexOf(fn));
}

ClassifierStats
FunctionClassifier::stats() const
{
    ClassifierStats s;
    for (Category c : categories_) {
        switch (c) {
          case Category::RefcountChanging: s.refcount_changing++; break;
          case Category::Affecting: s.affecting++; break;
          case Category::Other: s.other++; break;
        }
    }
    return s;
}

std::vector<std::string>
FunctionClassifier::functionsIn(Category c) const
{
    std::vector<std::string> out;
    for (size_t k = 0; k < categories_.size(); k++)
        if (categories_[k] == c)
            out.push_back(mod_.skeleton(k).name.str());
    return out;
}

} // namespace rid::analysis
