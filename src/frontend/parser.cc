#include "frontend/parser.h"

#include <cassert>

#include "obs/failpoint.h"

namespace rid::frontend {

namespace {

/** True for tokens that can begin a type in a declaration. */
bool
isTypeStart(Tok t)
{
    switch (t) {
      case Tok::KwInt: case Tok::KwVoid: case Tok::KwStruct:
      case Tok::KwEnum: case Tok::KwUnion: case Tok::KwConst:
      case Tok::KwUnsigned: case Tok::KwSigned: case Tok::KwLong:
      case Tok::KwShort: case Tok::KwChar: case Tok::KwBool:
      case Tok::KwStatic: case Tok::KwExtern: case Tok::KwInline:
      case Tok::KwVolatile:
        return true;
      default:
        return false;
    }
}

/** Interned spelling of operator token @p t, interned once per process
 *  instead of once per occurrence. */
ir::Name
opName(Tok t)
{
    static const std::vector<ir::Name> names = [] {
        std::vector<ir::Name> out;
        for (int k = 0; k <= static_cast<int>(Tok::Ellipsis); k++)
            out.emplace_back(tokName(static_cast<Tok>(k)));
        return out;
    }();
    return names[static_cast<size_t>(t)];
}

/**
 * Deepest tree the parser builds. Lowering, the AST walks and the AST's
 * destructor all recurse over the tree, so a deeper input would overflow
 * the stack; past this depth the file is rejected instead. Statements,
 * parentheses, unary operators, casts and ternaries each add a level, and
 * so does every operand of a binary or postfix chain, since the chain
 * becomes a left-deep tree.
 */
constexpr int kMaxNesting = 256;

class Parser
{
  public:
    explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

    AstUnit
    parse()
    {
        AstUnit unit;
        while (cur().kind != Tok::End)
            parseTopLevel(unit);
        return unit;
    }

  private:
    const Token &cur(size_t off = 0) const
    {
        size_t i = pos_ + off;
        return i < toks_.size() ? toks_[i] : toks_.back();
    }
    Tok kind() const { return cur().kind; }
    int line() const { return cur().line; }
    void advance() { if (pos_ + 1 < toks_.size()) pos_++; }

    [[noreturn]] void
    err(const std::string &msg) const
    {
        std::string got = cur().kind == Tok::Ident ? std::string(cur().text)
                                                   : tokName(cur().kind);
        throw ParseError(msg + " (got '" + got + "')", line());
    }

    /** Levels of tree depth held for as long as it lives (see
     *  kMaxNesting). A chain starts with none and goes deeper() once
     *  per operand. */
    class Nest
    {
      public:
        explicit Nest(Parser &p, int levels = 1) : p_(p)
        {
            while (held_ < levels)
                deeper();
        }
        ~Nest() { p_.depth_ -= held_; }
        Nest(const Nest &) = delete;
        Nest &operator=(const Nest &) = delete;

        void
        deeper()
        {
            held_++;
            if (++p_.depth_ > kMaxNesting)
                p_.err("nesting deeper than " +
                       std::to_string(kMaxNesting) + " levels");
        }

      private:
        Parser &p_;
        int held_ = 0;
    };

    void
    expect(Tok t, const char *what)
    {
        if (kind() != t)
            err(std::string("expected ") + what);
        advance();
    }

    bool
    accept(Tok t)
    {
        if (kind() == t) {
            advance();
            return true;
        }
        return false;
    }

    /**
     * Parse a type: qualifiers/specifiers, optional struct/enum tag,
     * optional typedef-style identifier, then '*'s. Returns flat text and
     * whether the type is (syntactically) void with no pointers.
     */
    struct TypeInfo
    {
        std::string text;
        bool is_void = false;
    };

    bool
    looksLikeType() const
    {
        if (isTypeStart(kind()))
            return true;
        // typedef-style: IDENT (IDENT | '*'+ IDENT) — a type name followed
        // by a declarator.
        if (kind() == Tok::Ident) {
            size_t off = 1;
            while (cur(off).kind == Tok::Star)
                off++;
            return off > 1 ? cur(off).kind == Tok::Ident
                           : cur(1).kind == Tok::Ident;
        }
        return false;
    }

    TypeInfo
    parseType()
    {
        TypeInfo info;
        bool saw_specifier = false;
        bool pointer = false;
        auto append = [&](std::string_view s) {
            if (!info.text.empty())
                info.text += ' ';
            info.text += s;
        };
        while (true) {
            Tok t = kind();
            if (isTypeStart(t)) {
                if (t == Tok::KwVoid)
                    info.is_void = true;
                if (t == Tok::KwStruct || t == Tok::KwEnum ||
                    t == Tok::KwUnion) {
                    append(tokName(t));
                    advance();
                    if (kind() == Tok::Ident) {
                        append(cur().text);
                        advance();
                    }
                    saw_specifier = true;
                    continue;
                }
                append(tokName(t));
                advance();
                saw_specifier = true;
                continue;
            }
            if (t == Tok::Ident && !saw_specifier) {
                // typedef-style type name
                append(cur().text);
                advance();
                saw_specifier = true;
                continue;
            }
            if (t == Tok::Star) {
                append("*");
                pointer = true;
                advance();
                continue;
            }
            break;
        }
        if (pointer)
            info.is_void = false;
        return info;
    }

    void
    parseTopLevel(AstUnit &unit)
    {
        // typedef ...; struct X {...}; enum {...}; — skip to ';' at depth 0.
        if (kind() == Tok::KwTypedef) {
            skipToSemi();
            return;
        }
        if ((kind() == Tok::KwStruct || kind() == Tok::KwEnum ||
             kind() == Tok::KwUnion) &&
            (cur(1).kind == Tok::LBrace ||
             (cur(1).kind == Tok::Ident && cur(2).kind == Tok::LBrace))) {
            skipToSemi();
            return;
        }
        if (accept(Tok::Semi))
            return;

        TypeInfo ret_type = parseType();
        if (kind() != Tok::Ident)
            err("expected function name");
        AstFunction fn;
        fn.name = ir::Name(cur().text);
        fn.return_type_text = ret_type.text;
        fn.returns_value = !ret_type.is_void;
        fn.line = line();
        advance();

        if (kind() != Tok::LParen) {
            // Global variable declaration: skip.
            skipToSemi();
            return;
        }
        advance();
        if (kind() == Tok::KwVoid && cur(1).kind == Tok::RParen)
            advance();
        while (kind() != Tok::RParen) {
            if (kind() == Tok::Ellipsis) {
                fn.is_variadic = true;
                advance();
                break;
            }
            AstParam p;
            TypeInfo pt = parseType();
            p.type_text = pt.text;
            if (kind() == Tok::Ident) {
                p.name = ir::Name(cur().text);
                advance();
            } else {
                p.name = ir::Name("p" + std::to_string(fn.params.size()));
            }
            // Array suffix on parameters: skip.
            while (accept(Tok::LBracket)) {
                while (kind() != Tok::RBracket && kind() != Tok::End)
                    advance();
                expect(Tok::RBracket, "]");
            }
            fn.params.push_back(std::move(p));
            if (!accept(Tok::Comma))
                break;
        }
        expect(Tok::RParen, ")");

        if (accept(Tok::Semi)) {
            fn.is_definition = false;
            unit.functions.push_back(std::move(fn));
            return;
        }
        fn.is_definition = true;
        fn.body = parseBlock();
        unit.functions.push_back(std::move(fn));
    }

    void
    skipToSemi()
    {
        int depth = 0;
        while (kind() != Tok::End) {
            if (kind() == Tok::LBrace)
                depth++;
            else if (kind() == Tok::RBrace)
                depth--;
            else if (kind() == Tok::Semi && depth <= 0) {
                advance();
                return;
            }
            advance();
        }
    }

    AstStmtPtr
    makeStmt(AstStmtKind k)
    {
        auto s = std::make_unique<AstStmt>();
        s->kind = k;
        s->line = line();
        return s;
    }

    AstStmtPtr
    parseBlock()
    {
        auto block = makeStmt(AstStmtKind::Block);
        expect(Tok::LBrace, "{");
        while (kind() != Tok::RBrace) {
            if (kind() == Tok::End)
                err("unexpected end of input in block");
            block->body.push_back(parseStmt());
        }
        advance();
        return block;
    }

    AstStmtPtr
    parseStmt()
    {
        Nest nest(*this);
        switch (kind()) {
          case Tok::LBrace:
            return parseBlock();
          case Tok::Semi: {
            auto s = makeStmt(AstStmtKind::Empty);
            advance();
            return s;
          }
          case Tok::KwIf: {
            auto s = makeStmt(AstStmtKind::If);
            advance();
            expect(Tok::LParen, "(");
            s->cond = parseExpr();
            expect(Tok::RParen, ")");
            s->then_body = parseStmt();
            if (accept(Tok::KwElse))
                s->else_body = parseStmt();
            return s;
          }
          case Tok::KwWhile: {
            auto s = makeStmt(AstStmtKind::While);
            advance();
            expect(Tok::LParen, "(");
            s->cond = parseExpr();
            expect(Tok::RParen, ")");
            s->loop_body = parseStmt();
            return s;
          }
          case Tok::KwDo: {
            auto s = makeStmt(AstStmtKind::DoWhile);
            advance();
            s->loop_body = parseStmt();
            expect(Tok::KwWhile, "while");
            expect(Tok::LParen, "(");
            s->cond = parseExpr();
            expect(Tok::RParen, ")");
            expect(Tok::Semi, ";");
            return s;
          }
          case Tok::KwFor: {
            auto s = makeStmt(AstStmtKind::For);
            advance();
            expect(Tok::LParen, "(");
            if (kind() != Tok::Semi)
                s->for_init = parseSimpleStmt(/*consume_semi=*/false);
            expect(Tok::Semi, ";");
            if (kind() != Tok::Semi)
                s->cond = parseExpr();
            expect(Tok::Semi, ";");
            if (kind() != Tok::RParen)
                s->for_step = parseSimpleStmt(/*consume_semi=*/false);
            expect(Tok::RParen, ")");
            s->loop_body = parseStmt();
            return s;
          }
          case Tok::KwReturn: {
            auto s = makeStmt(AstStmtKind::Return);
            advance();
            if (kind() != Tok::Semi)
                s->rhs = parseExpr();
            expect(Tok::Semi, ";");
            return s;
          }
          case Tok::KwGoto: {
            auto s = makeStmt(AstStmtKind::Goto);
            advance();
            if (kind() != Tok::Ident)
                err("expected label after goto");
            s->names.emplace_back(cur().text);
            advance();
            expect(Tok::Semi, ";");
            return s;
          }
          case Tok::KwBreak: {
            auto s = makeStmt(AstStmtKind::Break);
            advance();
            expect(Tok::Semi, ";");
            return s;
          }
          case Tok::KwContinue: {
            auto s = makeStmt(AstStmtKind::Continue);
            advance();
            expect(Tok::Semi, ";");
            return s;
          }
          case Tok::KwAssert: {
            auto s = makeStmt(AstStmtKind::Assert);
            advance();
            expect(Tok::LParen, "(");
            s->rhs = parseExpr();
            expect(Tok::RParen, ")");
            expect(Tok::Semi, ";");
            return s;
          }
          case Tok::KwSwitch:
            err("switch statements are not supported by Kernel-C");
          default:
            break;
        }
        // Label: IDENT ':'
        if (kind() == Tok::Ident && cur(1).kind == Tok::Colon) {
            auto s = makeStmt(AstStmtKind::Label);
            s->names.emplace_back(cur().text);
            advance();
            advance();
            return s;
        }
        return parseSimpleStmt(/*consume_semi=*/true);
    }

    /** Declaration, assignment or expression statement. */
    AstStmtPtr
    parseSimpleStmt(bool consume_semi)
    {
        if (looksLikeType()) {
            auto s = makeStmt(AstStmtKind::Decl);
            parseType();
            while (true) {
                // Extra '*' for subsequent declarators: int *a, *b;
                while (accept(Tok::Star)) {}
                if (kind() != Tok::Ident)
                    err("expected declarator name");
                s->names.emplace_back(cur().text);
                advance();
                while (accept(Tok::LBracket)) {
                    while (kind() != Tok::RBracket && kind() != Tok::End)
                        advance();
                    expect(Tok::RBracket, "]");
                }
                if (accept(Tok::Assign))
                    s->inits.push_back(parseAssignRhs());
                else
                    s->inits.push_back(nullptr);
                if (!accept(Tok::Comma))
                    break;
            }
            if (consume_semi)
                expect(Tok::Semi, ";");
            return s;
        }

        auto lhs = parseExpr();
        if (kind() == Tok::Assign) {
            auto s = makeStmt(AstStmtKind::Assign);
            advance();
            s->lhs = std::move(lhs);
            s->rhs = parseAssignRhs();
            if (consume_semi)
                expect(Tok::Semi, ";");
            return s;
        }
        // Compound assignments / inc-dec lower to nondeterministic update.
        switch (kind()) {
          case Tok::PlusAssign: case Tok::MinusAssign: case Tok::StarAssign:
          case Tok::SlashAssign: case Tok::PercentAssign:
          case Tok::AmpAssign: case Tok::PipeAssign: case Tok::CaretAssign:
          case Tok::ShlAssign: case Tok::ShrAssign: {
            auto s = makeStmt(AstStmtKind::Assign);
            std::string_view op = tokName(kind());
            advance();
            auto rhs = parseExpr();
            auto bin = std::make_unique<AstExpr>();
            bin->kind = AstExprKind::Binary;
            bin->text = ir::Name(op.substr(0, op.size() - 1));  // "+=" -> "+"
            bin->line = s->line;
            bin->a = cloneExpr(*lhs);
            bin->b = std::move(rhs);
            s->lhs = std::move(lhs);
            s->rhs = std::move(bin);
            if (consume_semi)
                expect(Tok::Semi, ";");
            return s;
          }
          default:
            break;
        }
        auto s = makeStmt(AstStmtKind::ExprStmt);
        s->rhs = std::move(lhs);
        if (consume_semi)
            expect(Tok::Semi, ";");
        return s;
    }

    /** RHS of '=' — an expression (chained assignment unsupported). */
    AstExprPtr parseAssignRhs() { return parseExpr(); }

    AstExprPtr
    makeExpr(AstExprKind k)
    {
        auto e = std::make_unique<AstExpr>();
        e->kind = k;
        e->line = line();
        return e;
    }

    static AstExprPtr
    cloneExpr(const AstExpr &e)
    {
        auto out = std::make_unique<AstExpr>();
        out->kind = e.kind;
        out->line = e.line;
        out->text = e.text;
        out->number = e.number;
        if (e.a)
            out->a = cloneExpr(*e.a);
        if (e.b)
            out->b = cloneExpr(*e.b);
        if (e.c)
            out->c = cloneExpr(*e.c);
        for (const auto &arg : e.args)
            out->args.push_back(cloneExpr(*arg));
        return out;
    }

    AstExprPtr parseExpr() { return parseTernary(); }

    AstExprPtr
    parseTernary()
    {
        auto cond = parseBinary(0);
        if (kind() != Tok::Question)
            return cond;
        Nest nest(*this);
        auto e = makeExpr(AstExprKind::Ternary);
        advance();
        e->a = std::move(cond);
        e->b = parseExpr();
        expect(Tok::Colon, ":");
        e->c = parseTernary();
        return e;
    }

    /** Precedence levels, loosest first. */
    static int
    precedence(Tok t)
    {
        switch (t) {
          case Tok::OrOr: return 1;
          case Tok::AndAnd: return 2;
          case Tok::Pipe: return 3;
          case Tok::Caret: return 4;
          case Tok::Amp: return 5;
          case Tok::Eq: case Tok::Ne: return 6;
          case Tok::Lt: case Tok::Le: case Tok::Gt: case Tok::Ge: return 7;
          case Tok::Shl: case Tok::Shr: return 8;
          case Tok::Plus: case Tok::Minus: return 9;
          case Tok::Star: case Tok::Slash: case Tok::Percent: return 10;
          default: return -1;
        }
    }

    AstExprPtr
    parseBinary(int min_prec)
    {
        auto lhs = parseUnary();
        Nest chain(*this, 0);
        while (true) {
            int prec = precedence(kind());
            if (prec < 0 || prec < min_prec)
                return lhs;
            chain.deeper();
            auto e = makeExpr(AstExprKind::Binary);
            e->text = opName(kind());
            advance();
            e->a = std::move(lhs);
            e->b = parseBinary(prec + 1);
            lhs = std::move(e);
        }
    }

    AstExprPtr
    parseUnary()
    {
        switch (kind()) {
          case Tok::Not: case Tok::Minus: case Tok::Amp: case Tok::Star:
          case Tok::Tilde:
          // Prefix inc/dec used as an expression: value is nondet.
          case Tok::PlusPlus: case Tok::MinusMinus: {
            Nest nest(*this);
            auto e = makeExpr(AstExprKind::Unary);
            e->text = opName(kind());
            advance();
            e->a = parseUnary();
            return e;
          }
          case Tok::KwSizeof: {
            Nest nest(*this);
            advance();
            // sizeof(type-or-expr): consume parenthesized blob.
            auto e = makeExpr(AstExprKind::Number);
            e->number = 8;
            if (accept(Tok::LParen)) {
                int depth = 1;
                while (depth > 0 && kind() != Tok::End) {
                    if (kind() == Tok::LParen)
                        depth++;
                    if (kind() == Tok::RParen)
                        depth--;
                    advance();
                }
            } else {
                parseUnary();
            }
            return e;
          }
          case Tok::LParen: {
            // Cast: '(' type ')' unary — detected as type start after '('.
            if (isTypeStart(cur(1).kind) ||
                (cur(1).kind == Tok::Ident &&
                 (cur(2).kind == Tok::Star || cur(2).kind == Tok::RParen) &&
                 looksCastLike())) {
                Nest nest(*this);
                advance();
                parseType();
                expect(Tok::RParen, ")");
                return parseUnary();
            }
            return parsePostfix();
          }
          default:
            return parsePostfix();
        }
    }

    /**
     * Disambiguate `(ident)` as cast vs parenthesized expression: treat as
     * a cast only when followed by something that can begin a unary
     * expression and the identifier is followed by '*' or ')'. This
     * heuristic is only consulted for `(ident * ...)` / `(ident)` forms.
     */
    bool
    looksCastLike() const
    {
        size_t off = 1;  // at ident
        off++;
        while (cur(off).kind == Tok::Star)
            off++;
        if (cur(off).kind != Tok::RParen)
            return false;
        Tok next = cur(off + 1).kind;
        switch (next) {
          case Tok::Ident: case Tok::Number: case Tok::KwNull:
          case Tok::LParen: case Tok::Not: case Tok::Minus:
          case Tok::Star: case Tok::Amp:
            // `(x) * y` is ambiguous; parenthesized idents are rare in
            // kernel code compared to casts, but `(x)` followed by an
            // operator is arithmetic. Only '*'-prefixed or ident/number
            // continuations are treated as casts.
            return next != Tok::Star || cur(off + 2).kind == Tok::Ident;
          default:
            return false;
        }
    }

    AstExprPtr
    parsePostfix()
    {
        auto e = parsePrimary();
        Nest chain(*this, 0);
        while (true) {
            switch (kind()) {
              case Tok::Arrow:
              case Tok::Dot: {
                chain.deeper();
                auto f = makeExpr(AstExprKind::Field);
                advance();
                if (kind() != Tok::Ident)
                    err("expected field name");
                f->text = ir::Name(cur().text);
                advance();
                f->a = std::move(e);
                e = std::move(f);
                break;
              }
              case Tok::LParen: {
                chain.deeper();
                auto call = makeExpr(AstExprKind::Call);
                advance();
                call->a = std::move(e);
                while (kind() != Tok::RParen) {
                    call->args.push_back(parseExpr());
                    if (!accept(Tok::Comma))
                        break;
                }
                expect(Tok::RParen, ")");
                e = std::move(call);
                break;
              }
              case Tok::LBracket: {
                chain.deeper();
                auto idx = makeExpr(AstExprKind::Index);
                advance();
                idx->a = std::move(e);
                idx->b = parseExpr();
                expect(Tok::RBracket, "]");
                e = std::move(idx);
                break;
              }
              case Tok::PlusPlus:
              case Tok::MinusMinus: {
                // Postfix inc/dec as an expression: nondet value.
                chain.deeper();
                auto u = makeExpr(AstExprKind::Unary);
                u->text = opName(kind());
                advance();
                u->a = std::move(e);
                e = std::move(u);
                break;
              }
              default:
                return e;
            }
        }
    }

    AstExprPtr
    parsePrimary()
    {
        switch (kind()) {
          case Tok::Ident: {
            auto e = AstExpr::ident(ir::Name(cur().text), line());
            advance();
            return e;
          }
          case Tok::Number: {
            auto e = AstExpr::num(cur().number, line());
            advance();
            return e;
          }
          case Tok::String: {
            auto e = makeExpr(AstExprKind::String);
            advance();
            return e;
          }
          case Tok::KwNull: {
            auto e = makeExpr(AstExprKind::Null);
            advance();
            return e;
          }
          case Tok::KwTrue:
          case Tok::KwFalse: {
            auto e = makeExpr(AstExprKind::Bool);
            e->number = kind() == Tok::KwTrue ? 1 : 0;
            advance();
            return e;
          }
          case Tok::LParen: {
            Nest nest(*this);
            advance();
            auto e = parseExpr();
            expect(Tok::RParen, ")");
            return e;
          }
          default:
            err("expected expression");
        }
    }

    std::vector<Token> toks_;
    size_t pos_ = 0;
    int depth_ = 0;   ///< tree levels open (Nest)
};

} // anonymous namespace

AstUnit
parseUnit(std::string_view source)
{
    obs::failpoint("frontend.parse");
    Parser p(tokenize(source));
    return p.parse();
}

} // namespace rid::frontend
