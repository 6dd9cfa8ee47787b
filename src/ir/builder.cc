#include "ir/builder.h"

#include <cassert>

namespace rid::ir {

void
IrBuilder::append(Instruction in)
{
    in.line = line_;
    auto &bb = fn_.block(cur_);
    assert(!bb.hasTerminator() && "appending after a terminator");
    bb.instrs.push_back(std::move(in));
}

IrBuilder &
IrBuilder::assign(Name dst, Value src)
{
    append(Instruction::assign(dst, src));
    return *this;
}

IrBuilder &
IrBuilder::fieldLoad(Name dst, Value base, Name field)
{
    append(Instruction::fieldLoad(dst, base, field));
    return *this;
}

IrBuilder &
IrBuilder::fieldStore(Value base, Name field, Value value)
{
    append(Instruction::fieldStore(base, field, value));
    return *this;
}

IrBuilder &
IrBuilder::random(Name dst)
{
    append(Instruction::random(dst));
    return *this;
}

IrBuilder &
IrBuilder::call(Name dst, Name callee, std::vector<Value> args)
{
    append(Instruction::call(dst, callee, std::move(args)));
    return *this;
}

IrBuilder &
IrBuilder::callVoid(Name callee, std::vector<Value> args)
{
    append(Instruction::call(Name(), callee, std::move(args)));
    return *this;
}

IrBuilder &
IrBuilder::ret(Value v)
{
    append(Instruction::ret(v));
    return *this;
}

IrBuilder &
IrBuilder::cmp(Name dst, smt::Pred pred, Value lhs, Value rhs)
{
    append(Instruction::cmp(dst, pred, lhs, rhs));
    return *this;
}

IrBuilder &
IrBuilder::condBranch(Value cond_var, BlockId if_true, BlockId if_false)
{
    append(Instruction::condBranch(cond_var, if_true, if_false));
    cur_ = if_true;
    return *this;
}

IrBuilder &
IrBuilder::branch(BlockId target)
{
    append(Instruction::branch(target));
    cur_ = target;
    return *this;
}

void
IrBuilder::sealOpenBlocks(Value ret_val)
{
    for (size_t b = 0; b < fn_.numBlocks(); b++) {
        auto &bb = fn_.block(static_cast<BlockId>(b));
        if (!bb.hasTerminator())
            bb.instrs.push_back(Instruction::ret(ret_val));
    }
}

Function
IrBuilder::take()
{
    fn_.verify();
    return std::move(fn_);
}

} // namespace rid::ir
