/**
 * @file
 * Functions, basic blocks and modules of the abstract program.
 *
 * A function is a list of basic blocks; block 0 is the entry. Every block
 * ends with exactly one terminator (Return, Branch or CondBranch) as its
 * last instruction. Functions without a body (externs) carry only their
 * signature and must be covered by predefined summaries or default
 * summaries during analysis.
 */

#ifndef RID_IR_FUNCTION_H
#define RID_IR_FUNCTION_H

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/instruction.h"

namespace rid::ir {

/**
 * Structural IR invariant violation, carrying the offending function and
 * block so a driver can isolate the failure to one function instead of
 * dying (the verifier used to abort the process).
 */
class IrError : public std::runtime_error
{
  public:
    IrError(std::string function, BlockId block, const std::string &msg)
        : std::runtime_error("IR verification failed in " + function +
                             " (bb" + std::to_string(block) + "): " + msg),
          function_(std::move(function)),
          block_(block)
    {}

    const std::string &function() const { return function_; }
    BlockId block() const { return block_; }

  private:
    std::string function_;
    BlockId block_;
};

/** A straight-line sequence of instructions ending in a terminator. */
struct BasicBlock
{
    Name label;                         ///< optional, for printing
    std::vector<Instruction> instrs;

    bool
    hasTerminator() const
    {
        return !instrs.empty() && instrs.back().isTerminator();
    }
    const Instruction &terminator() const { return instrs.back(); }

    /** Successor block ids (0, 1 or 2 entries). */
    std::vector<BlockId> successors() const;
};

/** A function definition or declaration. */
class Function
{
  public:
    Function(std::string name, std::vector<std::string> params,
             bool returns_value)
        : name_(std::move(name)), params_(std::move(params)),
          returnsValue_(returns_value)
    {}

    const std::string &name() const { return name_; }
    const std::vector<std::string> &params() const { return params_; }
    bool returnsValue() const { return returnsValue_; }

    /** Ordinal of the Module::absorb call that took this function in (0
     *  for functions added directly). Callers that absorb one module per
     *  retained source can index that source list with it. Not part of
     *  str() or fingerprint(). */
    uint32_t unit() const { return unit_; }

    bool isDeclaration() const { return blocks_.empty(); }

    BlockId
    addBlock(Name label = Name())
    {
        blocks_.push_back(BasicBlock{label, {}});
        return static_cast<BlockId>(blocks_.size() - 1);
    }

    BasicBlock &block(BlockId id) { return blocks_.at(id); }
    const BasicBlock &block(BlockId id) const { return blocks_.at(id); }
    size_t numBlocks() const { return blocks_.size(); }

    /** Total number of conditional branches in the body. */
    int countCondBranches() const;

    /** True if @p name is a formal parameter. */
    bool isParam(const std::string &name) const;

    /**
     * Validate structural invariants (every block terminated, branch
     * targets in range).
     * @throws IrError (with function/block context) on violation, so a
     *         driver can skip just this function. Intended for use after
     *         construction / lowering.
     */
    void verify() const;

    std::string str() const;
    /** Append str()'s bytes to @p out (the one printer; str() wraps it). */
    void appendTo(std::string &out) const;

    /**
     * Stable 64-bit fingerprint of the function body: FNV-1a over the
     * printed IR (name, signature, blocks, instructions). Identical
     * across runs, platforms and analysis configurations — the key the
     * provenance layer (obs/provenance.h) and the report fingerprints
     * derive from, and the summary-store key the incremental-daemon
     * roadmap item calls for.
     */
    uint64_t fingerprint() const;

  private:
    friend class Module;

    std::string name_;
    std::vector<std::string> params_;
    bool returnsValue_;
    uint32_t unit_ = 0;                 ///< fills returnsValue_'s padding
    std::vector<BasicBlock> blocks_;
};

/**
 * A translation unit: an ordered collection of functions.
 *
 * A function's position in functions() is its identity for the run: the
 * call graph numbers node k as function k, and per-function tables index
 * by it. A definition that replaces a declaration takes the
 * declaration's position, so positions never move. The module's name
 * index is the one name -> function lookup; the call graph and the
 * classifier resolve names through it instead of copying them.
 */
class Module
{
  public:
    /** Add a function; returns a stable non-owning pointer. */
    Function *addFunction(Function fn);

    /** Position of @p name in functions(), or -1 when absent. */
    int indexOf(std::string_view name) const;

    Function *find(const std::string &name);
    const Function *find(const std::string &name) const;

    const std::vector<std::unique_ptr<Function>> &functions() const
    {
        return functions_;
    }

    size_t size() const { return functions_.size(); }

    /** Merge all functions of @p other into this module (definitions win
     *  over declarations; duplicate definitions keep the first). Each
     *  absorbed function is stamped with this call's ordinal, so a kept
     *  definition's Function::unit() names the module it came from. */
    void absorb(Module other);

    std::string str() const;

  private:
    /** Take ownership of @p fn under the first-definition-wins rule. */
    Function *adopt(std::unique_ptr<Function> fn);

    std::vector<std::unique_ptr<Function>> functions_;
    /** name -> position in functions_. Keys view the owned functions'
     *  names, so the names are stored once. */
    std::unordered_map<std::string_view, int> byName_;
    uint32_t absorbed_ = 0;             ///< absorb() calls so far
};

} // namespace rid::ir

#endif // RID_IR_FUNCTION_H
