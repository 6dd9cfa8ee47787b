#include "frontend/ast.h"

#include <functional>

namespace rid::frontend {

AstExprPtr
AstExpr::ident(ir::Name name, int line)
{
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::Ident;
    e->text = name;
    e->line = line;
    return e;
}

AstExprPtr
AstExpr::num(int64_t v, int line)
{
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::Number;
    e->number = v;
    e->line = line;
    return e;
}

namespace {

void
walkExpr(const AstExpr *e, const std::function<void(const AstExpr &)> &fn)
{
    if (!e)
        return;
    fn(*e);
    walkExpr(e->a.get(), fn);
    walkExpr(e->b.get(), fn);
    walkExpr(e->c.get(), fn);
    for (const auto &arg : e->args)
        walkExpr(arg.get(), fn);
}

} // anonymous namespace

void
forEachStmt(const AstStmt &stmt,
            const std::function<void(const AstStmt &)> &fn)
{
    fn(stmt);
    for (const auto &s : stmt.body)
        if (s)
            forEachStmt(*s, fn);
    for (const AstStmt *s : {stmt.then_body.get(), stmt.else_body.get(),
                             stmt.loop_body.get(), stmt.for_init.get(),
                             stmt.for_step.get()}) {
        if (s)
            forEachStmt(*s, fn);
    }
}

void
forEachExpr(const AstStmt &stmt,
            const std::function<void(const AstExpr &)> &fn)
{
    forEachStmt(stmt, [&](const AstStmt &s) {
        for (const AstExpr *e :
             {s.lhs.get(), s.rhs.get(), s.cond.get()}) {
            walkExpr(e, fn);
        }
        for (const auto &init : s.inits)
            walkExpr(init.get(), fn);
    });
}

} // namespace rid::frontend
