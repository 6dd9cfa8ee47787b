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

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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

/**
 * A straight-line sequence of instructions ending in a terminator. Part
 * of a frozen function: the label is interned and the instructions view
 * the function's one allocation, so a block owns nothing.
 */
struct BasicBlock
{
    Name label;                         ///< optional, for printing
    std::span<const Instruction> instrs;

    bool
    hasTerminator() const
    {
        return !instrs.empty() && instrs.back().isTerminator();
    }
    const Instruction &terminator() const { return instrs.back(); }

    /** Successor block ids (0, 1 or 2 entries). */
    std::vector<BlockId> successors() const;
};

/**
 * A function definition or declaration, frozen: immutable once built and
 * laid out in one allocation that holds this header followed by its
 * blocks, their instructions, the call arguments and the parameters, at
 * exact size. IrBuilder::take() builds definitions and declaration()
 * builds declarations; both hand out a std::unique_ptr<Function> whose
 * delete frees that one allocation.
 */
class Function
{
  public:
    /** A function without a body: its signature only. */
    static std::unique_ptr<Function>
    declaration(Name name, std::span<const Name> params, bool returns_value);
    static std::unique_ptr<Function>
    declaration(Name name, std::initializer_list<Name> params,
                bool returns_value)
    {
        return declaration(name, {params.begin(), params.size()},
                           returns_value);
    }

    Function(const Function &) = delete;
    Function &operator=(const Function &) = delete;

    /** Frees the header and everything laid out behind it. */
    static void operator delete(void *p) { ::operator delete(p); }

    const std::string &name() const { return name_.str(); }
    std::span<const Name> params() const { return params_; }
    bool returnsValue() const { return returnsValue_; }

    /** Ordinal of the Module::commit that took this function in (0 for
     *  functions added one at a time). Rid commits one unit per retained
     *  source, so a function's unit() indexes that source list. Not part
     *  of str() or fingerprint(). */
    uint32_t unit() const { return unit_; }

    bool isDeclaration() const { return blocks_.empty(); }

    const BasicBlock &
    block(BlockId id) const
    {
        if (static_cast<size_t>(id) >= blocks_.size())
            throw std::out_of_range("ir::Function: no block " +
                                    std::to_string(id));
        return blocks_[id];
    }
    size_t numBlocks() const { return blocks_.size(); }

    /** Total number of conditional branches in the body. */
    int countCondBranches() const;

    /** True if @p name is a formal parameter. */
    bool isParam(Name name) const;

    /**
     * Validate structural invariants (every block terminated, branch
     * targets in range).
     * @throws IrError (with function/block context) on violation, so a
     *         driver can skip just this function. IrBuilder::take() runs
     *         it on every function it builds.
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
    friend class IrBuilder;
    friend class Module;

    /** Tag for the one allocation: @p bytes trail the header. */
    struct Trailing
    {
        size_t bytes;
    };
    static void *
    operator new(size_t size, Trailing t)
    {
        return ::operator new(size + t.bytes);
    }
    static void operator delete(void *p, Trailing) { ::operator delete(p); }

    Function(Name name, bool returns_value) noexcept
        : name_(name), returnsValue_(returns_value)
    {}

    /**
     * Allocate a function whose body takes @p body_bytes, copy @p params
     * in behind the body, and return it with no blocks yet; the caller
     * lays the body out from bodyStorage() and sets blocks_.
     */
    static std::unique_ptr<Function>
    allocate(Name name, std::span<const Name> params, bool returns_value,
             size_t body_bytes);
    std::byte *
    bodyStorage()
    {
        return reinterpret_cast<std::byte *>(this + 1);
    }

    Name name_;
    std::span<const Name> params_;
    std::span<const BasicBlock> blocks_;
    bool returnsValue_;
    uint32_t unit_ = 0;                 ///< fills returnsValue_'s padding
};

// A frozen function owns nothing but its one allocation, so freeing it
// runs no destructors.
static_assert(std::is_trivially_destructible_v<Instruction>);
static_assert(std::is_trivially_destructible_v<BasicBlock>);
static_assert(std::is_trivially_destructible_v<Function>);

/**
 * A translation unit or a whole corpus: an ordered collection of
 * functions.
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
    /** Add one function (unit ordinal 0) under the first-definition-wins
     *  rule; returns a stable non-owning pointer to the kept function. */
    Function *addFunction(std::unique_ptr<Function> fn);

    /**
     * Take in one unit's functions, in order, under the same rule
     * (definitions win over declarations; duplicate definitions keep the
     * first). The unit is stamped with the next unit ordinal, so a kept
     * function's unit() names the commit it came from. A caller commits
     * a unit only once all of it has lowered and verified, so a rejected
     * unit leaves the module untouched.
     */
    void commit(std::vector<std::unique_ptr<Function>> unit);

    /** Commit @p other's functions as one unit. */
    void absorb(Module other) { commit(std::move(other.functions_)); }

    /** Position of @p name in functions(), or -1 when absent. */
    int indexOf(std::string_view name) const;

    Function *find(const std::string &name);
    const Function *find(const std::string &name) const;

    const std::vector<std::unique_ptr<Function>> &functions() const
    {
        return functions_;
    }

    size_t size() const { return functions_.size(); }

    std::string str() const;

  private:
    /** One slot of the name index: a position in functions_ (-1 when
     *  the slot is empty) and the hash of that function's name. */
    struct Slot
    {
        uint32_t hash;
        int32_t pos;
    };

    /** The slot holding @p name, or the empty slot where it would go. */
    size_t slotOf(std::string_view name, uint32_t hash) const;

    std::vector<std::unique_ptr<Function>> functions_;
    /** name -> position: open addressing with linear probing over a
     *  power-of-two table at most 3/4 full. It hashes spellings, never
     *  addresses, and allocates nothing per function; a definition that
     *  replaces a declaration keeps the declaration's slot as it is. */
    std::vector<Slot> index_;
    uint32_t units_ = 0;                ///< commit() calls so far
};

} // namespace rid::ir

#endif // RID_IR_FUNCTION_H
