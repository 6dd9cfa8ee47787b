/**
 * @file
 * Instructions of the abstract program (Figure 3 of the paper).
 *
 * The instruction set matches the paper's abstraction exactly:
 *
 *   x = v                 Assign
 *   x = y.field           FieldLoad
 *   x = random            Random
 *   fn(v1,...,vn)         Call (dst absent)
 *   x = fn(v1,...,vn)     Call (dst present)
 *   return v              Return
 *   x = v1 pred v2        Cmp
 *   branch x, l1, l2      CondBranch
 *   branch l              Branch
 *
 * Branch targets are block indices within the owning function; the
 * front-end resolves labels during lowering.
 */

#ifndef RID_IR_INSTRUCTION_H
#define RID_IR_INSTRUCTION_H

#include <span>
#include <string>

#include "ir/name.h"
#include "ir/value.h"
#include "smt/expr.h"

namespace rid::ir {

/** Index of a basic block within its function. */
using BlockId = int;

enum class Opcode : uint8_t {
    Assign,
    FieldLoad,
    /** Store to a structure field: `y.field = v`. Only emitted when the
     *  LowerOptions::model_field_stores extension is on; the analysis
     *  treats it as an observable path effect, not a memory update. */
    FieldStore,
    Random,
    Call,
    Return,
    Cmp,
    CondBranch,
    Branch,
};

const char *opcodeName(Opcode op);

/**
 * A single instruction. Plain aggregate with factory functions; unused
 * fields are left defaulted. A call's arguments are a view: inside a
 * function they live in the function's one allocation (IrBuilder copies
 * them there), so an instruction owns nothing.
 */
struct Instruction
{
    Opcode op = Opcode::Assign;
    smt::Pred pred = smt::Pred::Eq; ///< Cmp predicate
    int line = 0;                 ///< source line for reports (0 = unknown)
    Name dst;                     ///< destination variable (may be empty)
    Value a;                      ///< Assign src / FieldLoad base /
                                  ///< Cmp lhs / Return value / CondBranch
                                  ///< condition variable
    Value b;                      ///< Cmp rhs
    Name field;                   ///< FieldLoad field name
    Name callee;                  ///< Call target name
    std::span<const Value> args;  ///< Call arguments
    BlockId target = -1;          ///< Branch target / CondBranch true
    BlockId target_else = -1;     ///< CondBranch false

    static Instruction assign(Name dst, Value src);
    static Instruction fieldLoad(Name dst, Value base, Name field);
    static Instruction fieldStore(Value base, Name field, Value value);
    static Instruction random(Name dst);
    /** Call with optional destination (empty dst = void call). The
     *  instruction views @p args, which must outlive it. */
    static Instruction call(Name dst, Name callee,
                            std::span<const Value> args);
    static Instruction ret(Value v);
    static Instruction cmp(Name dst, smt::Pred pred, Value lhs, Value rhs);
    static Instruction condBranch(Value cond_var, BlockId if_true,
                                  BlockId if_false);
    static Instruction branch(BlockId target);

    bool isTerminator() const
    {
        return op == Opcode::Return || op == Opcode::Branch ||
               op == Opcode::CondBranch;
    }

    std::string str() const;
    /** Append str()'s bytes to @p out (the one printer; str() wraps it). */
    void appendTo(std::string &out) const;
};

} // namespace rid::ir

#endif // RID_IR_INSTRUCTION_H
