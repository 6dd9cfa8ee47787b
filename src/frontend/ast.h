/**
 * @file
 * Abstract syntax tree for Kernel-C.
 *
 * The AST is deliberately small: types are recorded as flat text (the
 * analysis is untyped), and only the constructs that survive lowering to
 * the Figure 3 abstraction are represented structurally. Identifiers,
 * field names, labels and operator spellings are interned as the parser
 * builds the tree, so lowering copies eight-byte ir::Name handles. It is
 * used both by the lowering pass and by the syntactic call-site scanner
 * that reproduces the paper's Section 6.3 "brute-force search".
 */

#ifndef RID_FRONTEND_AST_H
#define RID_FRONTEND_AST_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/name.h"

namespace rid::frontend {

struct AstExpr;
using AstExprPtr = std::unique_ptr<AstExpr>;

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
    AstExprPtr a, b, c;         ///< operands
    std::vector<AstExprPtr> args; ///< Call arguments (a = callee expr)

    static AstExprPtr ident(ir::Name name, int line);
    static AstExprPtr num(int64_t v, int line);
};

struct AstStmt;
using AstStmtPtr = std::unique_ptr<AstStmt>;

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

    std::vector<AstStmtPtr> body;     ///< Block contents / single bodies
    std::vector<ir::Name> names;      ///< Decl names / Goto+Label name
    std::vector<AstExprPtr> inits;    ///< Decl initializers (may be null)
    AstExprPtr lhs, rhs;              ///< Assign; rhs also Return/Assert
    AstExprPtr cond;                  ///< If/While/DoWhile/For condition
    AstStmtPtr then_body, else_body;  ///< If
    AstStmtPtr loop_body;             ///< While/DoWhile/For
    AstStmtPtr for_init, for_step;    ///< For clauses (may be null)
};

/** A function parameter: flat type text plus a name. */
struct AstParam
{
    std::string type_text;
    ir::Name name;
};

/** A function definition or prototype. */
struct AstFunction
{
    ir::Name name;
    std::string return_type_text;
    bool returns_value = false;
    std::vector<AstParam> params;
    bool is_definition = false;
    bool is_variadic = false;
    AstStmtPtr body;  ///< Block; null for prototypes
    int line = 0;
};

/** A parsed translation unit. */
struct AstUnit
{
    std::vector<AstFunction> functions;
};

/** Walk every expression in a statement tree (pre-order). */
void forEachExpr(const AstStmt &stmt,
                 const std::function<void(const AstExpr &)> &fn);

/** Walk every statement in a tree (pre-order), including @p stmt. */
void forEachStmt(const AstStmt &stmt,
                 const std::function<void(const AstStmt &)> &fn);

} // namespace rid::frontend

#endif // RID_FRONTEND_AST_H
