/**
 * @file
 * Functions, basic blocks and modules of the abstract program.
 *
 * A function is a list of basic blocks; block 0 is the entry. Every block
 * ends with exactly one terminator (Return, Branch or CondBranch) as its
 * last instruction. Functions without a body (externs) carry only their
 * signature and must be covered by predefined summaries or default
 * summaries during analysis.
 *
 * A module keeps a Skeleton for every function (name, unit, flags,
 * callees, source span). Most of a corpus is category-3 code the
 * analysis never reads, so a unit committed from source keeps only
 * skeletons and each function's IR is built on first read.
 */

#ifndef RID_IR_FUNCTION_H
#define RID_IR_FUNCTION_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
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
     *  functions added one at a time), also on its Skeleton. Rid commits
     *  one unit per retained source, so a function's unit() indexes that
     *  source list. Not part of str() or fingerprint(). */
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

/** Where a function's text sits in its unit's retained source: the
 *  bytes [begin, end), the first of which is on line @p line. */
struct SourceSpan
{
    uint32_t begin = 0;
    uint32_t end = 0;
    int line = 0;
};

/**
 * What the module keeps for every function, with or without its IR:
 * enough for the call graph, classification phase one, default
 * summaries and store keys. A function committed from source keeps its
 * skeleton only, and its IR is rebuilt from the span on first read.
 */
struct Skeleton
{
    Name name;
    const Name *callee_names = nullptr;   ///< see callees()
    /** Source of a function committed without its IR; empty otherwise. */
    SourceSpan span;
    uint32_t unit = 0;            ///< see Function::unit()
    uint32_t num_callees = 0;
    bool declaration = false;
    bool returns_value = false;
    /** Module::committedFingerprint() holds Function::fingerprint(),
     *  taken at commit only when asked for (a store keys every tracked
     *  function by it). */
    bool fingerprinted = false;

    /** Distinct call targets, in the order of their first call in block
     *  order: the call graph's edge order. */
    std::span<const Name>
    callees() const
    {
        return {callee_names, num_callees};
    }
};

/**
 * Rebuilds a function's IR from its skeleton's source span. The module
 * calls it at most once per function, possibly from several threads at
 * once for different functions, with failpoints suppressed. It lives
 * outside rid_ir (Rid implements it over its retained sources), so the
 * IR does not depend on the frontend.
 */
class Lowering
{
  public:
    virtual ~Lowering() = default;
    /** The function @p fn describes, as lowering its whole unit built
     *  it (same bytes, fingerprint and lines). */
    virtual std::unique_ptr<Function> lower(const Skeleton &fn) const = 0;
};

class Module;

/** The module's functions in position order; reading one builds it. */
class FunctionRange
{
  public:
    class iterator
    {
      public:
        const Function *operator*() const;
        iterator &
        operator++()
        {
            k_++;
            return *this;
        }
        bool operator==(const iterator &) const = default;

      private:
        friend class FunctionRange;
        iterator(const Module *m, size_t k) : m_(m), k_(k) {}
        const Module *m_;
        size_t k_;
    };

    explicit FunctionRange(const Module &m) : m_(&m) {}
    iterator begin() const { return {m_, 0}; }
    iterator end() const;
    size_t size() const;
    const Function *operator[](size_t k) const;

  private:
    const Module *m_;
};

/**
 * A translation unit or a whole corpus: an ordered collection of
 * functions.
 *
 * A function's position is its identity for the run: the call graph
 * numbers node k as function k, and per-function tables index by it. A
 * definition that replaces a declaration takes the declaration's
 * position, so positions never move. The module's name index is the one
 * name -> function lookup; the call graph and the classifier resolve
 * names through it instead of copying them.
 *
 * Every function has a skeleton. Its IR is either committed with it
 * (commit(unit), addFunction, absorb) or, for a unit committed from
 * source, freed at commit and rebuilt through the Lowering hook the
 * first time function() or find() reads it. A build happens once per
 * function even when several threads ask at the same time; skeletons
 * never build anything.
 */
class Module
{
  public:
    Module();
    ~Module();
    Module(Module &&) noexcept;
    Module &operator=(Module &&) noexcept;

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

    /**
     * As above, but keep only the kept functions' skeletons, with
     * @p spans[i] the source of @p unit[i], and free the IR: function()
     * rebuilds it through the Lowering hook, which must be set. With
     * @p fingerprint, each kept skeleton also records the function's
     * fingerprint before its IR goes. A function that calls any of
     * @p keep_callers_of keeps its IR: Rid passes the refcount APIs,
     * whose direct callers are category 1 (Section 5.2), so the
     * analysis reads them anyway and a rebuild would lower them twice.
     */
    void commit(std::vector<std::unique_ptr<Function>> unit,
                std::span<const SourceSpan> spans, bool fingerprint,
                std::span<const Name> keep_callers_of = {});

    /** Commit @p other's functions as one unit (building any it has not
     *  built yet). */
    void absorb(Module other);

    /** Install the hook that builds functions committed from source. */
    void setLowering(std::shared_ptr<const Lowering> lowering);

    size_t size() const { return entries_.size(); }

    /** Position of @p name, or -1 when absent. */
    int indexOf(std::string_view name) const;

    /** The skeleton of function @p k; never builds IR. */
    const Skeleton &skeleton(size_t k) const { return entries_[k].sk; }

    /** The fingerprint function @p k's IR had when it was committed;
     *  only when skeleton(k).fingerprinted. */
    uint64_t committedFingerprint(size_t k) const { return fingerprints_[k]; }

    /** The IR of function @p k, built on first read.
     *  @throws whatever the Lowering hook throws; nothing is kept then. */
    const Function &
    function(size_t k) const
    {
        const Entry &e = entries_[k];
        if (const Function *fn = e.fn.load(std::memory_order_acquire))
            return *fn;
        return build(k);
    }

    /** Whether function @p k's IR exists yet; never builds it. */
    bool
    built(size_t k) const
    {
        return entries_[k].fn.load(std::memory_order_acquire) != nullptr;
    }

    /** The IR of the function named @p name (built on first read), or
     *  null when absent. */
    const Function *find(std::string_view name) const;

    FunctionRange functions() const { return FunctionRange(*this); }

    /** Functions built on first read so far (not those committed with
     *  their IR). */
    size_t lowered() const;

    /** Every function's printed IR, in position order (builds them). */
    std::string str() const;

  private:
    /** One function: its skeleton and, once committed or built, its IR
     *  (owned). Entries never move. */
    struct Entry
    {
        Entry(const Skeleton &s, Function *f) : sk(s), fn(f) {}
        Entry(const Entry &) = delete;
        Entry &operator=(const Entry &) = delete;
        ~Entry() { delete fn.load(std::memory_order_relaxed); }

        Skeleton sk;
        mutable std::atomic<Function *> fn;
    };

    /** One slot of the name index: a position in entries_ (-1 when the
     *  slot is empty) and the hash of that function's name. */
    struct Slot
    {
        uint32_t hash;
        int32_t pos;
    };

    struct Lazy;

    /** The slot holding @p name, or the empty slot where it would go. */
    size_t slotOf(std::string_view name, uint32_t hash) const;

    /**
     * Place @p fn under the first-definition-wins rule with unit ordinal
     * @p unit. With a @p span the IR is freed after its skeleton is
     * taken (fingerprinted when @p fingerprint) unless @p fn calls one
     * of @p keep_callers_of; without one it is kept. Returns the kept
     * function's position.
     */
    size_t place(std::unique_ptr<Function> fn, uint32_t unit,
                 const SourceSpan *span, bool fingerprint,
                 std::span<const Name> keep_callers_of = {});

    /** Record @p fn's distinct callees, copied into module-owned
     *  storage, on @p sk. */
    void storeCallees(const Function &fn, Skeleton &sk);

    /** function()'s slow path: build entry @p k through the hook. */
    const Function &build(size_t k) const;

    /** A deque, so growing the module never moves or copies an
     *  entry. */
    std::deque<Entry> entries_;
    /** name -> position: open addressing with linear probing over a
     *  power-of-two table at most 3/4 full. It hashes spellings, never
     *  addresses, and allocates nothing per function; a definition that
     *  replaces a declaration keeps the declaration's slot as it is. */
    std::vector<Slot> index_;
    /** Backing store of the skeletons' callee lists: chunks that never
     *  move, filled in order. */
    std::vector<std::unique_ptr<Name[]>> callee_chunks_;
    /** committedFingerprint() by position; empty until one is taken. */
    std::vector<uint64_t> fingerprints_;
    size_t callee_chunk_used_ = 0;
    size_t callee_chunk_size_ = 0;
    uint32_t units_ = 0;                ///< commit() calls so far
    /** The hook, its build locks and counter; set by setLowering(). */
    std::unique_ptr<Lazy> lazy_;
};

inline const Function *
FunctionRange::iterator::operator*() const
{
    return &m_->function(k_);
}

inline FunctionRange::iterator
FunctionRange::end() const
{
    return {m_, m_->size()};
}

inline size_t
FunctionRange::size() const
{
    return m_->size();
}

inline const Function *
FunctionRange::operator[](size_t k) const
{
    return &m_->function(k);
}

} // namespace rid::ir

#endif // RID_IR_FUNCTION_H
