#include "ir/builder.h"

#include <cassert>
#include <stdexcept>

namespace rid::ir {

/** A function under construction. Vectors keep their capacity when the
 *  scratch goes back to the pool, so building allocates only while a
 *  thread's functions keep growing. */
struct IrBuilder::Scratch
{
    /** An instruction whose arguments are the next nargs values of its
     *  block's args. */
    struct Pending
    {
        Instruction in;
        uint32_t nargs;
    };
    struct Block
    {
        Name label;
        std::vector<Pending> instrs;
        std::vector<Value> args;
    };

    Block &
    block(BlockId id)
    {
        if (id < 0 || static_cast<size_t>(id) >= used)
            throw std::out_of_range("IrBuilder: no block " +
                                    std::to_string(id));
        return blocks[id];
    }

    std::vector<Name> params;
    std::vector<Block> blocks;          ///< the first `used` are live
    size_t used = 0;
};

std::vector<std::unique_ptr<IrBuilder::Scratch>> &
IrBuilder::pool()
{
    thread_local std::vector<std::unique_ptr<Scratch>> idle;
    return idle;
}

IrBuilder::IrBuilder(Name name, std::span<const Name> params,
                     bool returns_value)
    : name_(name), returnsValue_(returns_value)
{
    auto &idle = pool();
    if (idle.empty()) {
        s_ = new Scratch;
    } else {
        s_ = idle.back().release();
        idle.pop_back();
    }
    s_->params.assign(params.begin(), params.end());
    s_->used = 0;
    static const Name kEntry("entry");
    cur_ = newBlock(kEntry);
}

IrBuilder::~IrBuilder()
{
    pool().emplace_back(s_);
}

BlockId
IrBuilder::newBlock(Name label)
{
    if (s_->used == s_->blocks.size())
        s_->blocks.emplace_back();
    Scratch::Block &bb = s_->blocks[s_->used];
    bb.label = label;
    bb.instrs.clear();
    bb.args.clear();
    return static_cast<BlockId>(s_->used++);
}

bool
IrBuilder::blockHasTerminator(BlockId id) const
{
    const auto &instrs = s_->block(id).instrs;
    return !instrs.empty() && instrs.back().in.isTerminator();
}

void
IrBuilder::append(Instruction in)
{
    assert(!blockHasTerminator(cur_) && "appending after a terminator");
    Scratch::Block &bb = s_->block(cur_);
    bb.args.insert(bb.args.end(), in.args.begin(), in.args.end());
    auto nargs = static_cast<uint32_t>(in.args.size());
    in.args = {};
    in.line = line_;
    bb.instrs.push_back({in, nargs});
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
IrBuilder::call(Name dst, Name callee, std::span<const Value> args)
{
    append(Instruction::call(dst, callee, args));
    return *this;
}

IrBuilder &
IrBuilder::callVoid(Name callee, std::span<const Value> args)
{
    append(Instruction::call(Name(), callee, args));
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
    for (size_t b = 0; b < s_->used; b++)
        if (!blockHasTerminator(static_cast<BlockId>(b)))
            s_->blocks[b].instrs.push_back({Instruction::ret(ret_val), 0});
}

std::unique_ptr<Function>
IrBuilder::take()
{
    // Layout behind the header: blocks, instructions, call arguments
    // (then the parameters, which Function::allocate places).
    static_assert(alignof(BasicBlock) <= alignof(Function) &&
                  sizeof(BasicBlock) % alignof(Instruction) == 0 &&
                  sizeof(Instruction) % alignof(Value) == 0 &&
                  sizeof(Value) % alignof(Name) == 0);
    const size_t nblocks = s_->used;
    size_t ninstrs = 0, nargs = 0;
    for (size_t b = 0; b < nblocks; b++) {
        ninstrs += s_->blocks[b].instrs.size();
        nargs += s_->blocks[b].args.size();
    }
    const size_t block_bytes = nblocks * sizeof(BasicBlock);
    const size_t instr_bytes = ninstrs * sizeof(Instruction);
    std::unique_ptr<Function> fn = Function::allocate(
        name_, s_->params, returnsValue_,
        block_bytes + instr_bytes + nargs * sizeof(Value));

    std::byte *body = fn->bodyStorage();
    auto *blocks = reinterpret_cast<BasicBlock *>(body);
    auto *instr = reinterpret_cast<Instruction *>(body + block_bytes);
    auto *arg = reinterpret_cast<Value *>(body + block_bytes + instr_bytes);
    for (size_t b = 0; b < nblocks; b++) {
        const Scratch::Block &bb = s_->blocks[b];
        const Instruction *first = instr;
        const Value *next_arg = arg;
        arg = std::uninitialized_copy(bb.args.begin(), bb.args.end(), arg);
        for (const Scratch::Pending &p : bb.instrs) {
            Instruction *in = new (instr++) Instruction(p.in);
            in->args = {next_arg, p.nargs};
            next_arg += p.nargs;
        }
        new (&blocks[b]) BasicBlock{bb.label, {first, bb.instrs.size()}};
    }
    fn->blocks_ = {blocks, nblocks};
    fn->verify();
    return fn;
}

} // namespace rid::ir
