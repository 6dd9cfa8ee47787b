/**
 * @file
 * Abstract syntax tree for Kernel-C.
 *
 * The AST is deliberately small: types are not recorded (the analysis is
 * untyped), and only the constructs that survive lowering to the Figure
 * 3 abstraction are represented structurally. Identifiers, field names,
 * labels and operator spellings are interned as the parser builds the
 * tree, so lowering copies eight-byte ir::Name handles. It is used both
 * by the lowering pass and by the syntactic call-site scanner that
 * reproduces the paper's Section 6.3 "brute-force search".
 *
 * A unit's nodes and child lists live in an arena owned by its AstUnit:
 * child links are plain pointers and child lists are spans, nodes are
 * trivially destructible, and the whole tree is freed in one step when
 * the unit dies. Node pointers stay valid when the unit is moved. Nodes
 * are never changed once linked, so one node may have two parents: a
 * compound assignment `x op= e` becomes `x = x op e` with one node for x.
 */

#ifndef RID_FRONTEND_AST_H
#define RID_FRONTEND_AST_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "ir/name.h"

namespace rid::frontend {

/**
 * Bump allocator for one unit's AST. Objects are never destroyed one by
 * one, so only trivially destructible types may live here; every chunk
 * is freed when the arena dies. Moving an arena keeps its objects where
 * they are.
 */
class AstArena
{
  public:
    AstArena() = default;
    AstArena(AstArena &&other) noexcept { *this = std::move(other); }
    AstArena &
    operator=(AstArena &&other) noexcept
    {
        chunks_ = std::move(other.chunks_);
        next_ = std::exchange(other.next_, nullptr);
        end_ = std::exchange(other.end_, nullptr);
        other.chunks_.clear();
        return *this;
    }

    /** A value-initialized T in the arena. */
    template <typename T>
    T *
    make()
    {
        static_assert(std::is_trivially_destructible_v<T>);
        return new (allocate(sizeof(T), alignof(T))) T();
    }

    /** A copy of @p items in the arena. */
    template <typename T>
    std::span<const T>
    copy(std::span<const T> items)
    {
        static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>);
        if (items.empty())
            return {};
        void *p = allocate(items.size_bytes(), alignof(T));
        std::memcpy(p, items.data(), items.size_bytes());
        return {static_cast<const T *>(p), items.size()};
    }

  private:
    void *
    allocate(size_t size, size_t align)
    {
        auto at = reinterpret_cast<uintptr_t>(next_);
        uintptr_t aligned = (at + align - 1) & ~(uintptr_t(align) - 1);
        if (next_ == nullptr ||
            aligned + size > reinterpret_cast<uintptr_t>(end_))
            return allocateSlow(size, align);
        next_ = reinterpret_cast<std::byte *>(aligned + size);
        return reinterpret_cast<void *>(aligned);
    }
    void *allocateSlow(size_t size, size_t align);

    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::byte *next_ = nullptr;   ///< free space in the newest chunk
    std::byte *end_ = nullptr;
};

enum class AstExprKind : uint8_t {
    Ident,
    Number,
    String,
    Null,
    Bool,
    Unary,   ///< op in {'!', '-', '&', '*', '~'}
    Binary,  ///< op is the token spelling: "==", "&&", "+", ...
    Field,   ///< base . name  (or ->; both normalize to Field)
    Call,
    Ternary, ///< cond ? then : otherwise
    Index,   ///< base [ index ]
};

/** An expression node. */
struct AstExpr
{
    AstExprKind kind;
    int line = 0;

    ir::Name text;              ///< Ident name / field name / op spelling
                                ///< (empty for String: literals are opaque)
    int64_t number = 0;         ///< Number value / Bool value
    const AstExpr *a = nullptr; ///< operands
    const AstExpr *b = nullptr;
    const AstExpr *c = nullptr;
    std::span<const AstExpr *const> args; ///< Call arguments (a = callee)
};

struct AstStmt;

enum class AstStmtKind : uint8_t {
    Block,
    Decl,      ///< local declaration(s); inits parallel to names
    ExprStmt,  ///< expression evaluated for effect (usually a call)
    Assign,    ///< lhs = rhs (lhs: Ident, Field or *deref)
    If,
    While,
    DoWhile,
    For,
    Return,
    Goto,
    Label,
    Break,
    Continue,
    Assert,
    Empty,
};

/** A statement node. */
struct AstStmt
{
    AstStmtKind kind;
    int line = 0;

    std::span<const AstStmt *const> body; ///< Block contents
    std::span<const ir::Name> names;      ///< Decl names / Goto+Label name
    std::span<const AstExpr *const> inits; ///< Decl initializers (may be
                                           ///< null), parallel to names
    const AstExpr *lhs = nullptr;     ///< Assign
    const AstExpr *rhs = nullptr;     ///< Assign, Return, Assert, ExprStmt
    const AstExpr *cond = nullptr;    ///< If/While/DoWhile/For condition
    const AstStmt *then_body = nullptr;  ///< If
    const AstStmt *else_body = nullptr;
    const AstStmt *loop_body = nullptr;  ///< While/DoWhile/For
    const AstStmt *for_init = nullptr;   ///< For clauses (may be null)
    const AstStmt *for_step = nullptr;
};

static_assert(std::is_trivially_destructible_v<AstExpr> &&
                  std::is_trivially_destructible_v<AstStmt>,
              "AST nodes live in an arena and are never destroyed");

/** A function parameter. */
struct AstParam
{
    ir::Name name;
};

/** A function definition or prototype. */
struct AstFunction
{
    ir::Name name;
    bool returns_value = false;
    std::span<const AstParam> params;
    bool is_definition = false;
    bool is_variadic = false;
    const AstStmt *body = nullptr;  ///< Block; null for prototypes
    int line = 0;                   ///< of the name
    /** Bytes [begin, end) of the source, from the first token of the
     *  return type to the closing '}' or ';', starting on first_line. */
    uint32_t begin = 0;
    uint32_t end = 0;
    int first_line = 0;
};

/** A parsed translation unit: its functions and the arena that holds
 *  their trees. */
struct AstUnit
{
    std::vector<AstFunction> functions;
    AstArena arena;
};

/** Walk every expression in a statement tree (pre-order). */
void forEachExpr(const AstStmt &stmt,
                 const std::function<void(const AstExpr &)> &fn);

/** Walk every statement in a tree (pre-order), including @p stmt. */
void forEachStmt(const AstStmt &stmt,
                 const std::function<void(const AstStmt &)> &fn);

} // namespace rid::frontend

#endif // RID_FRONTEND_AST_H
