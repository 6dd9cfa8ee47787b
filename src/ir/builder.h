/**
 * @file
 * Convenience builder for constructing IR functions in tests and corpus
 * generators without going through the Kernel-C front-end.
 */

#ifndef RID_IR_BUILDER_H
#define RID_IR_BUILDER_H

#include "ir/function.h"

namespace rid::ir {

/**
 * Cursor-style builder: appends instructions to a current block of a
 * function under construction.
 */
class IrBuilder
{
  public:
    IrBuilder(std::string name, std::vector<std::string> params,
              bool returns_value)
        : fn_(std::move(name), std::move(params), returns_value)
    {
        cur_ = fn_.addBlock("entry");
    }

    /** Create a new block (does not move the cursor). */
    BlockId newBlock(Name label = Name()) { return fn_.addBlock(label); }

    /** Move the cursor to @p id. */
    void setBlock(BlockId id) { cur_ = id; }
    BlockId currentBlock() const { return cur_; }

    IrBuilder &assign(Name dst, Value src);
    IrBuilder &fieldLoad(Name dst, Value base, Name field);
    IrBuilder &fieldStore(Value base, Name field, Value value);
    IrBuilder &random(Name dst);
    IrBuilder &call(Name dst, Name callee, std::vector<Value> args);
    IrBuilder &callVoid(Name callee, std::vector<Value> args);
    IrBuilder &ret(Value v = Value::none());
    IrBuilder &cmp(Name dst, smt::Pred pred, Value lhs, Value rhs);
    /** Emit cond-branch on @p cond_var and move the cursor to @p if_true. */
    IrBuilder &condBranch(Value cond_var, BlockId if_true, BlockId if_false);
    /** Emit branch and move the cursor to @p target. */
    IrBuilder &branch(BlockId target);

    /** Set the source line attached to subsequently emitted instructions. */
    IrBuilder &atLine(int line) { line_ = line; return *this; }

    /** True if block @p id already ends in a terminator. */
    bool blockHasTerminator(BlockId id) const
    {
        return fn_.block(id).hasTerminator();
    }

    /**
     * Append `return ret_val` to every block that lacks a terminator.
     * Used by the front-end to seal unreachable blocks produced while
     * lowering dead code.
     */
    void sealOpenBlocks(Value ret_val);

    /** Finish: verifies and returns the function. */
    Function take();

  private:
    void append(Instruction in);

    Function fn_;
    BlockId cur_ = 0;
    int line_ = 0;
};

} // namespace rid::ir

#endif // RID_IR_BUILDER_H
