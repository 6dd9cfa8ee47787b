#include "analysis/slicer.h"

#include <algorithm>
#include <deque>
#include <set>
#include <string>

#include "analysis/domtree.h"

namespace rid::analysis {

namespace {

/** Variables used (read) by an instruction. */
std::vector<std::string>
usesOf(const ir::Instruction &in)
{
    std::vector<std::string> uses;
    auto add = [&uses](const ir::Value &v) {
        if (v.isVar())
            uses.push_back(v.varName());
    };
    add(in.a);
    add(in.b);
    for (const auto &arg : in.args)
        add(arg);
    return uses;
}

/** Variable defined (written) by an instruction; empty if none. */
const std::string &
defOf(const ir::Instruction &in)
{
    return in.dst;
}

} // anonymous namespace

std::vector<InstrRef>
backwardSlice(const ir::Function &fn, bool include_returns,
              const std::function<bool(const ir::Instruction &)>
                  &call_criterion)
{
    std::set<InstrRef> slice;
    std::deque<InstrRef> worklist;
    std::set<std::string> needed_vars;
    std::set<ir::BlockId> needed_blocks;

    auto enqueue = [&](InstrRef ref) {
        if (slice.insert(ref).second)
            worklist.push_back(ref);
    };

    // Seed the slice with the criteria.
    for (size_t b = 0; b < fn.numBlocks(); b++) {
        const auto &bb = fn.block(static_cast<ir::BlockId>(b));
        for (size_t i = 0; i < bb.instrs.size(); i++) {
            const auto &in = bb.instrs[i];
            bool criterion = false;
            if (include_returns && in.op == ir::Opcode::Return &&
                !in.a.isNone()) {
                criterion = true;
            }
            if (in.op == ir::Opcode::Call && call_criterion(in))
                criterion = true;
            if (criterion)
                enqueue({static_cast<ir::BlockId>(b), static_cast<int>(i)});
        }
    }
    if (slice.empty())
        return {};

    ControlDeps cdeps(fn);

    // Closure over data and control dependence. Data dependence is
    // approximated without kill information: every definition of a needed
    // variable joins the slice.
    auto addVar = [&needed_vars](const std::string &v) {
        return !v.empty() && needed_vars.insert(v).second;
    };
    auto addBlockDeps = [&](ir::BlockId b) {
        if (!needed_blocks.insert(b).second)
            return;
        for (ir::BlockId branch_block : cdeps.depsOf(b)) {
            const auto &bb = fn.block(branch_block);
            enqueue({branch_block,
                     static_cast<int>(bb.instrs.size()) - 1});
        }
    };

    while (true) {
        while (!worklist.empty()) {
            InstrRef ref = worklist.front();
            worklist.pop_front();
            const auto &in = fn.block(ref.block).instrs[ref.index];
            for (const auto &use : usesOf(in))
                addVar(use);
            addBlockDeps(ref.block);
        }
        // Pull in every definition of a needed variable; iterate until no
        // new instruction joins the slice.
        for (size_t b = 0; b < fn.numBlocks(); b++) {
            const auto &bb = fn.block(static_cast<ir::BlockId>(b));
            for (size_t i = 0; i < bb.instrs.size(); i++) {
                const auto &in = bb.instrs[i];
                const auto &def = defOf(in);
                if (!def.empty() && needed_vars.count(def))
                    enqueue({static_cast<ir::BlockId>(b),
                             static_cast<int>(i)});
            }
        }
        if (worklist.empty())
            break;
    }

    return {slice.begin(), slice.end()};
}

} // namespace rid::analysis
