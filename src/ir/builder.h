/**
 * @file
 * Builder for IR functions: the front-end's lowering target, and the way
 * tests and corpus generators construct IR without going through the
 * Kernel-C front-end.
 */

#ifndef RID_IR_BUILDER_H
#define RID_IR_BUILDER_H

#include "ir/function.h"

namespace rid::ir {

/**
 * Cursor-style builder: appends instructions to a current block of a
 * function under construction. It builds in scratch vectors borrowed from
 * a per-thread pool (kept at capacity between functions), and take()
 * freezes the result into one exact-size allocation.
 */
class IrBuilder
{
  public:
    IrBuilder(Name name, std::span<const Name> params, bool returns_value);
    IrBuilder(Name name, std::initializer_list<Name> params,
              bool returns_value)
        : IrBuilder(name, {params.begin(), params.size()}, returns_value)
    {}
    ~IrBuilder();

    IrBuilder(const IrBuilder &) = delete;
    IrBuilder &operator=(const IrBuilder &) = delete;

    /** Create a new block (does not move the cursor). */
    BlockId newBlock(Name label = Name());

    /** Move the cursor to @p id. */
    void setBlock(BlockId id) { cur_ = id; }
    BlockId currentBlock() const { return cur_; }

    IrBuilder &assign(Name dst, Value src);
    IrBuilder &fieldLoad(Name dst, Value base, Name field);
    IrBuilder &fieldStore(Value base, Name field, Value value);
    IrBuilder &random(Name dst);
    /** Calls copy @p args; the caller's storage may go right after. */
    IrBuilder &call(Name dst, Name callee, std::span<const Value> args);
    IrBuilder &call(Name dst, Name callee, std::initializer_list<Value> args)
    {
        return call(dst, callee, {args.begin(), args.size()});
    }
    IrBuilder &callVoid(Name callee, std::span<const Value> args);
    IrBuilder &callVoid(Name callee, std::initializer_list<Value> args)
    {
        return callVoid(callee, {args.begin(), args.size()});
    }
    IrBuilder &ret(Value v = Value::none());
    IrBuilder &cmp(Name dst, smt::Pred pred, Value lhs, Value rhs);
    /** Emit cond-branch on @p cond_var and move the cursor to @p if_true. */
    IrBuilder &condBranch(Value cond_var, BlockId if_true, BlockId if_false);
    /** Emit branch and move the cursor to @p target. */
    IrBuilder &branch(BlockId target);

    /** Set the source line attached to subsequently emitted instructions. */
    IrBuilder &atLine(int line) { line_ = line; return *this; }

    /** True if block @p id already ends in a terminator. */
    bool blockHasTerminator(BlockId id) const;

    /**
     * Append `return ret_val` to every block that lacks a terminator.
     * Used by the front-end to seal unreachable blocks produced while
     * lowering dead code.
     */
    void sealOpenBlocks(Value ret_val);

    /**
     * Finish: lay the function out in one exact-size allocation, verify
     * it and return it. The builder is spent afterwards.
     * @throws IrError if the function fails Function::verify().
     */
    std::unique_ptr<Function> take();

  private:
    struct Scratch;
    /** This thread's idle scratch buffers. */
    static std::vector<std::unique_ptr<Scratch>> &pool();

    void append(Instruction in);

    Scratch *s_;                        ///< borrowed from the thread's pool
    Name name_;
    bool returnsValue_;
    BlockId cur_ = 0;
    int line_ = 0;
};

} // namespace rid::ir

#endif // RID_IR_BUILDER_H
