#include "kernel/scanner.h"

#include <algorithm>
#include <set>
#include <span>

namespace rid::kernel {

namespace {

bool
contains(const std::vector<std::string> &pool, const std::string &name)
{
    return std::find(pool.begin(), pool.end(), name) != pool.end();
}

/** True if the expression is a direct call to one of @p apis. */
bool
isCallTo(const frontend::AstExpr *e, const std::vector<std::string> &apis)
{
    return e && e->kind == frontend::AstExprKind::Call && e->a &&
           e->a->kind == frontend::AstExprKind::Ident &&
           contains(apis, e->a->text);
}

/** True if any expression below @p stmt calls one of @p apis. */
bool
treeCallsAny(const frontend::AstStmt &stmt,
             const std::vector<std::string> &apis)
{
    bool found = false;
    frontend::forEachExpr(stmt, [&](const frontend::AstExpr &e) {
        if (e.kind == frontend::AstExprKind::Call && e.a &&
            e.a->kind == frontend::AstExprKind::Ident &&
            contains(apis, e.a->text)) {
            found = true;
        }
    });
    return found;
}

/** True if the condition mentions variable @p var. */
bool
condMentions(const frontend::AstExpr *cond, const std::string &var)
{
    if (!cond)
        return false;
    if (cond->kind == frontend::AstExprKind::Ident && cond->text == var)
        return true;
    for (const frontend::AstExpr *child :
         {cond->a, cond->b, cond->c}) {
        if (child && condMentions(child, var))
            return true;
    }
    for (const frontend::AstExpr *arg : cond->args)
        if (condMentions(arg, var))
            return true;
    return false;
}

/** True if the statement subtree can leave the function (return/goto). */
bool
treeEscapes(const frontend::AstStmt &stmt)
{
    bool escapes = false;
    frontend::forEachStmt(stmt, [&](const frontend::AstStmt &s) {
        if (s.kind == frontend::AstStmtKind::Return ||
            s.kind == frontend::AstStmtKind::Goto) {
            escapes = true;
        }
    });
    return escapes;
}

/**
 * Heuristic wrapper detection matching the paper's exclusion: the
 * function body is essentially `status = get(..); if (error) put(..);
 * ... return status;` — i.e. the error branch undoes the increment and
 * there is no further work between the get and the return (at most one
 * get and one put call in the whole body).
 */
bool
looksLikeWrapper(const frontend::AstFunction &fn,
                 const std::vector<std::string> &get_family,
                 const std::vector<std::string> &put_family)
{
    if (!fn.body)
        return false;
    int calls = 0;
    bool get_seen = false, put_in_if = false;
    frontend::forEachStmt(*fn.body, [&](const frontend::AstStmt &s) {
        if (s.kind == frontend::AstStmtKind::If && s.then_body &&
            treeCallsAny(*s.then_body, put_family)) {
            put_in_if = true;
        }
    });
    frontend::forEachExpr(*fn.body, [&](const frontend::AstExpr &e) {
        if (e.kind == frontend::AstExprKind::Call) {
            calls++;
            if (e.a && e.a->kind == frontend::AstExprKind::Ident &&
                contains(get_family, e.a->text)) {
                get_seen = true;
            }
        }
    });
    return get_seen && put_in_if && calls <= 3;
}

/** Scan one function body for error-handled get-family call sites. */
void
scanFunction(const frontend::AstFunction &fn,
             const std::vector<std::string> &get_family,
             const std::vector<std::string> &put_family,
             ScanResult &result)
{
    if (!fn.body)
        return;

    // Walk statement lists looking for the idiom:
    //   ret = pm_runtime_get*(...);
    //   if (<cond mentioning ret>) <error-branch>
    // and classify the error branch by whether it calls a put before
    // escaping.
    std::function<void(std::span<const frontend::AstStmt *const>)> walkList =
        [&](std::span<const frontend::AstStmt *const> stmts) {
        for (size_t i = 0; i < stmts.size(); i++) {
            const frontend::AstStmt &s = *stmts[i];
            // Recurse into nested bodies.
            if (s.kind == frontend::AstStmtKind::Block)
                walkList(s.body);
            for (const frontend::AstStmt *sub :
                 {s.then_body, s.else_body, s.loop_body}) {
                if (sub) {
                    if (sub->kind == frontend::AstStmtKind::Block)
                        walkList(sub->body);
                }
            }

            // Match `var = get(...)` either as Assign or Decl init.
            std::string var;
            int line = 0;
            std::string api;
            if (s.kind == frontend::AstStmtKind::Assign && s.lhs &&
                s.lhs->kind == frontend::AstExprKind::Ident &&
                isCallTo(s.rhs, get_family)) {
                var = s.lhs->text;
                api = s.rhs->a->text;
                line = s.line;
            } else if (s.kind == frontend::AstStmtKind::Decl) {
                for (size_t d = 0; d < s.names.size(); d++) {
                    if (d < s.inits.size() &&
                        isCallTo(s.inits[d], get_family)) {
                        var = s.names[d];
                        api = s.inits[d]->a->text;
                        line = s.line;
                    }
                }
            }
            if (var.empty())
                continue;

            // Find the next if-statement checking the result.
            for (size_t j = i + 1; j < stmts.size(); j++) {
                const frontend::AstStmt &check = *stmts[j];
                if (check.kind != frontend::AstStmtKind::If ||
                    !condMentions(check.cond, var)) {
                    continue;
                }
                if (!check.then_body || !treeEscapes(*check.then_body))
                    break;  // not error handling that leaves the function
                GetCallSite site;
                site.function = fn.name;
                site.api = api;
                site.line = line;
                site.missing_put =
                    !treeCallsAny(*check.then_body, put_family);
                result.sites.push_back(std::move(site));
                break;
            }
        }
    };
    if (fn.body->kind == frontend::AstStmtKind::Block)
        walkList(fn.body->body);
}

} // anonymous namespace

ScanResult
scanUnit(const frontend::AstUnit &unit,
         const std::vector<std::string> &get_family,
         const std::vector<std::string> &put_family, bool exclude_wrappers)
{
    ScanResult result;
    for (const auto &fn : unit.functions) {
        if (!fn.is_definition)
            continue;
        if (exclude_wrappers &&
            looksLikeWrapper(fn, get_family, put_family)) {
            continue;
        }
        scanFunction(fn, get_family, put_family, result);
    }
    return result;
}

} // namespace rid::kernel
