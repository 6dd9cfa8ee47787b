#include "analysis/classifier.h"

#include "analysis/slicer.h"
#include "obs/trace.h"

namespace rid::analysis {

const char *
categoryName(Category c)
{
    switch (c) {
      case Category::RefcountChanging:
        return "functions with refcount changes";
      case Category::Affecting:
        return "functions affecting those with refcount changes";
      case Category::Other:
        return "the others";
    }
    return "?";
}

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

    // Phase 1: propagate "has refcount changes" in reverse topological
    // order (callees first). Recursive cycles are handled by iterating a
    // whole SCC until stable (equivalently: an SCC is refcount-changing
    // if any member calls a refcount-changing function).
    auto order = cg.reverseTopoOrder();
    for (int node : order) {
        if (rc_changing[node])
            continue;
        for (int callee : cg.calleesOf(node)) {
            if (rc_changing[callee]) {
                rc_changing[node] = true;
                break;
            }
        }
    }
    // One fixpoint round for cycles whose member order hid the seed.
    bool changed = true;
    while (changed) {
        changed = false;
        for (int node : order) {
            if (rc_changing[node])
                continue;
            for (int callee : cg.calleesOf(node)) {
                if (rc_changing[callee]) {
                    rc_changing[node] = true;
                    changed = true;
                    break;
                }
            }
        }
    }

    // Phase 2: in topological order (callers first), slice every
    // refcount-changing function on its return values and the actual
    // arguments of refcount-changing calls; callees invoked inside the
    // slice become category 2.
    std::vector<bool> affecting(n, false);
    std::vector<int> topo(order.rbegin(), order.rend());
    for (int node : topo) {
        if (!rc_changing[node] || static_cast<size_t>(node) >= mod_.size() ||
            mod_.skeleton(node).declaration)
            continue;
        const ir::Function &fn = mod_.function(node);
        auto isRcCall = [&](const ir::Instruction &in) {
            int callee = cg.nodeOf(in.callee);
            return callee >= 0 && rc_changing[callee];
        };
        auto slice = backwardSlice(fn, /*include_returns=*/true, isRcCall);
        for (const auto &ref : slice) {
            const auto &in = fn.block(ref.block).instrs[ref.index];
            if (in.op != ir::Opcode::Call)
                continue;
            int callee = cg.nodeOf(in.callee);
            if (callee >= 0 && !rc_changing[callee])
                affecting[callee] = true;
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
