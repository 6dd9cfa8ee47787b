#include "analysis/paths.h"

#include <cassert>

#include "frontend/lower.h"
#include "obs/budget.h"
#include "obs/failpoint.h"
#include "obs/trace.h"

namespace rid::analysis {

bool
blockCallsAssertFail(const ir::BasicBlock &bb)
{
    for (const auto &in : bb.instrs) {
        if (in.op == ir::Opcode::Call &&
            in.callee == frontend::kAssertFailFn) {
            return true;
        }
    }
    return false;
}

namespace {

struct Enumerator
{
    const ir::Function &fn;
    int max_paths;
    const obs::Budget *budget;
    PathEnumResult result;
    std::vector<ir::BlockId> current;
    std::vector<int> visits;

    bool
    dfs(ir::BlockId b)
    {
        if (budget && budget->expired()) {
            result.deadline_hit = true;
            return false;
        }
        if (static_cast<int>(result.paths.size()) >= max_paths) {
            result.truncated = true;
            return false;
        }
        if (visits[b] >= kMaxBlockVisits)
            return true;  // prune this continuation, keep enumerating
        const auto &bb = fn.block(b);
        if (blockCallsAssertFail(bb))
            return true;  // assertion-failure exit: not a real path
        visits[b]++;
        current.push_back(b);
        auto succ = bb.successors();
        if (succ.empty()) {
            result.paths.push_back(Path{current});
        } else {
            for (auto s : succ) {
                if (!dfs(s))
                    break;
            }
        }
        current.pop_back();
        visits[b]--;
        return static_cast<int>(result.paths.size()) < max_paths;
    }
};

} // anonymous namespace

PathEnumResult
enumeratePaths(const ir::Function &fn, int max_paths,
               const obs::Budget *budget)
{
    assert(!fn.isDeclaration());
    obs::failpoint("analysis.paths.enumerate");
    obs::Span span("phase", "enumerate-paths");
    span.arg("fn", fn.name());
    Enumerator e{fn, max_paths, budget, {}, {}, {}};
    e.visits.assign(fn.numBlocks(), 0);
    e.dfs(0);
    if (static_cast<int>(e.result.paths.size()) >= max_paths)
        e.result.truncated = true;
    span.arg("paths", std::to_string(e.result.paths.size()));
    return std::move(e.result);
}

} // namespace rid::analysis
