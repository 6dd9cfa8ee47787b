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
 * A module keeps a Skeleton for every function: its one identity record
 * (name, unit, flags, callees, source span and, in a store run, body
 * fingerprint). Most of a corpus is category-3 code the analysis never
 * reads, so a module with a Lowering hook keeps only the skeletons of
 * the functions committed with their source, and builds a function's IR
 * when it is first read.
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
 * What the module keeps for every function, with or without its IR: the
 * function's identity, and enough for the call graph, classification
 * phase one, default summaries and store keys.
 */
struct Skeleton
{
    Name name;
    const Name *callee_names = nullptr;   ///< see callees()
    /** Where the function's text is in its unit's source; empty (end 0)
     *  for a function committed without one. */
    SourceSpan span;
    /** Ordinal of the Module::commit that took the function in. Rid
     *  commits one unit per retained source, so it indexes that list. */
    uint32_t unit = 0;
    uint32_t num_callees = 0;
    bool declaration = false;
    bool returns_value = false;
    /** Function::fingerprint(), when the commit took it (a store keys
     *  every tracked function by it); 0 otherwise. */
    uint64_t fingerprint = 0;

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
 * Every function enters through commit() and has a skeleton. Its IR is
 * either kept, or, for a function committed with its span into a module
 * with a Lowering hook, freed at commit and rebuilt through the hook the
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

    /**
     * Take in one unit's functions, in order: definitions win over
     * declarations, and duplicate definitions keep the first. The kept
     * skeletons are stamped with the next unit ordinal. A caller commits
     * a unit only once all of it has lowered and verified, so a rejected
     * unit leaves the module untouched.
     *
     * @p spans, when not empty, holds the source of each of @p unit's
     * functions. A function committed with its span keeps only its
     * skeleton when the module has a Lowering hook, and function()
     * rebuilds its IR; otherwise it keeps its IR. A function that calls
     * any of @p keep_callers_of keeps its IR too: Rid passes the refcount
     * APIs, whose direct callers are category 1 (Section 5.2), so the
     * analysis reads them anyway and a rebuild would lower them twice.
     * With @p fingerprint, each kept skeleton records the function's
     * fingerprint while its IR is at hand.
     */
    void commit(std::vector<std::unique_ptr<Function>> unit,
                std::span<const SourceSpan> spans = {},
                bool fingerprint = false,
                std::span<const Name> keep_callers_of = {});

    /** Commit @p other's functions with their spans as one unit
     *  (building any it has not built yet). */
    void absorb(Module other);

    /** Install the hook that builds functions committed from source. */
    void setLowering(std::shared_ptr<const Lowering> lowering);

    size_t size() const { return entries_.size(); }

    /** Position of @p name, or -1 when absent. */
    int indexOf(std::string_view name) const;

    /** The skeleton of function @p k; never builds IR. */
    const Skeleton &skeleton(size_t k) const { return entries_[k].sk; }

    /** Function::fingerprint() of function @p k: the one its commit
     *  took, or else rendered from its IR (which builds it). */
    uint64_t
    fingerprint(size_t k) const
    {
        // A body that really hashes to 0 is rendered on each call.
        const uint64_t fp = entries_[k].sk.fingerprint;
        return fp ? fp : function(k).fingerprint();
    }

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

    /** Place @p fn, with source @p span, under commit()'s rules and
     *  with unit ordinal @p unit. */
    void place(std::unique_ptr<Function> fn, uint32_t unit,
               const SourceSpan &span, bool fingerprint,
               std::span<const Name> keep_callers_of);

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
