#include "frontend/ast.h"

#include <algorithm>
#include <functional>

namespace rid::frontend {

void *
AstArena::allocateSlow(size_t size, size_t align)
{
    // Chunks of 4, 8, 16 and then 32 KiB: small enough to stay in the
    // allocator's heap instead of each becoming a fresh mapping. A list
    // larger than a chunk gets a chunk of its own, and the current chunk
    // keeps serving small objects.
    constexpr size_t kFirstChunk = 4096;
    size_t chunk = kFirstChunk << std::min<size_t>(chunks_.size(), 3);
    if (size + align > chunk) {
        chunks_.push_back(
            std::make_unique_for_overwrite<std::byte[]>(size + align));
        auto at = reinterpret_cast<uintptr_t>(chunks_.back().get());
        return reinterpret_cast<void *>((at + align - 1) &
                                        ~(uintptr_t(align) - 1));
    }
    chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(chunk));
    next_ = chunks_.back().get();
    end_ = next_ + chunk;
    return allocate(size, align);
}

namespace {

void
walkExpr(const AstExpr *e, const std::function<void(const AstExpr &)> &fn)
{
    if (!e)
        return;
    fn(*e);
    walkExpr(e->a, fn);
    walkExpr(e->b, fn);
    walkExpr(e->c, fn);
    for (const AstExpr *arg : e->args)
        walkExpr(arg, fn);
}

} // anonymous namespace

void
forEachStmt(const AstStmt &stmt,
            const std::function<void(const AstStmt &)> &fn)
{
    fn(stmt);
    for (const AstStmt *s : stmt.body)
        if (s)
            forEachStmt(*s, fn);
    for (const AstStmt *s : {stmt.then_body, stmt.else_body,
                             stmt.loop_body, stmt.for_init,
                             stmt.for_step}) {
        if (s)
            forEachStmt(*s, fn);
    }
}

void
forEachExpr(const AstStmt &stmt,
            const std::function<void(const AstExpr &)> &fn)
{
    forEachStmt(stmt, [&](const AstStmt &s) {
        for (const AstExpr *e : {s.lhs, s.rhs, s.cond})
            walkExpr(e, fn);
        for (const AstExpr *init : s.inits)
            walkExpr(init, fn);
    });
}

} // namespace rid::frontend
