#include "frontend/parser.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

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
 * Deepest tree the parser builds. Lowering and the AST walks recurse
 * over the tree (freeing it does not: it dies with its arena), so a
 * deeper input would overflow the stack; past this depth the file is
 * rejected instead. Statements, parentheses, unary operators, casts and
 * ternaries each add a level, and so does every operand of a binary or
 * postfix chain, since the chain becomes a left-deep tree.
 */
constexpr int kMaxNesting = 256;

/**
 * The lexer plus the tokens pulled from it but not yet consumed: the
 * current token, and behind it the ones the parser has peeked at. The
 * parser peeks past any run of '*' to tell a declaration or cast from an
 * expression, so the lookahead is a ring that grows on demand.
 */
class TokenQueue
{
  public:
    TokenQueue(std::string_view source, int first_line)
        : lexer_(source, first_line)
    {}

    /** The current token; End until the first pop(). */
    const Token &current() const { return cur_; }

    /** The token @p off (at least 1) places past the current one. The
     *  reference is valid until the next peek() or pop(). */
    const Token &
    peek(size_t off)
    {
        while (off > count_)
            pull();
        return ring_[(head_ + off - 1) & (cap_ - 1)];
    }

    /** Move to the next token. Past the end the lexer yields End
     *  forever, so the current token then stays End. */
    void
    pop()
    {
        if (count_ == 0) {
            cur_ = lexer_.next();
            return;
        }
        cur_ = ring_[head_];
        head_ = (head_ + 1) & (cap_ - 1);
        count_--;
    }

    /** Scan the rest of the input, raising its first lexical error. */
    void
    drain()
    {
        while (lexer_.next().kind != Tok::End) {}
    }

  private:
    void
    pull()
    {
        if (count_ == cap_) {
            // Unroll the ring into a buffer twice its size.
            auto bigger = std::make_unique<Token[]>(2 * cap_);
            std::rotate_copy(ring_.get(), ring_.get() + head_,
                             ring_.get() + cap_, bigger.get());
            ring_ = std::move(bigger);
            cap_ *= 2;
            head_ = 0;
        }
        ring_[(head_ + count_) & (cap_ - 1)] = lexer_.next();
        count_++;
    }

    Lexer lexer_;
    Token cur_;
    size_t cap_ = 8;   ///< a power of two
    std::unique_ptr<Token[]> ring_ = std::make_unique<Token[]>(cap_);
    size_t head_ = 0;
    size_t count_ = 0;
};

/**
 * Names interned while parsing one unit, keyed by their spelling in its
 * source. Identifiers recur within a unit, so most lookups end in this
 * open-addressing table instead of ir::Name's process-wide, mutex-guarded
 * one. Keys view the source, so a cache lives for one parse only.
 */
class NameCache
{
  public:
    ir::Name
    intern(std::string_view spelling)
    {
        size_t hash = std::hash<std::string_view>{}(spelling);
        size_t mask = slots_.size() - 1;
        for (size_t i = hash & mask;; i = (i + 1) & mask) {
            Slot &slot = slots_[i];
            if (slot.key.empty()) {
                slot = Slot{hash, spelling, ir::Name(spelling)};
                ir::Name name = slot.name;
                if (++used_ * 2 > slots_.size())
                    grow();
                return name;
            }
            if (slot.hash == hash && slot.key == spelling)
                return slot.name;
        }
    }

  private:
    /** An identifier's spelling is never empty, so an empty key marks a
     *  free slot. */
    struct Slot
    {
        size_t hash = 0;
        std::string_view key;
        ir::Name name;
    };

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        size_t mask = slots_.size() - 1;
        for (const Slot &slot : old) {
            if (slot.key.empty())
                continue;
            size_t i = slot.hash & mask;
            while (!slots_[i].key.empty())
                i = (i + 1) & mask;
            slots_[i] = slot;
        }
    }

    std::vector<Slot> slots_ = std::vector<Slot>(256);
    size_t used_ = 0;
};

class Parser
{
  public:
    Parser(std::string_view source, int first_line, AstArena &arena)
        : toks_(source, first_line), arena_(arena)
    {}

    /** Parse the whole unit into @p functions. */
    void
    parse(std::vector<AstFunction> &functions)
    {
        try {
            advance();  // to the first token
            while (kind() != Tok::End)
                parseTopLevel(functions);
        } catch (const ParseError &) {
            // Report a file's first lexical error ahead of any syntax
            // error, as if the file had been tokenized before parsing.
            // The lexer has scanned only up to the parser's lookahead, so
            // scan the rest. If the error came from the lexer, the lexer
            // is used up and this finds nothing.
            toks_.drain();
            throw;
        }
    }

  private:
    const Token &
    cur(size_t off = 0)
    {
        return off == 0 ? toks_.current() : toks_.peek(off);
    }
    Tok kind() { return cur().kind; }
    int line() { return cur().line; }
    void
    advance()
    {
        consumed_ = cur().offset;
        toks_.pop();
    }

    [[noreturn]] void
    err(const std::string &msg)
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

    /** The interned name spelled @p text. */
    ir::Name intern(std::string_view text) { return name_cache_.intern(text); }

    /** Move the entries of @p scratch from @p mark on into the arena. */
    template <typename T>
    std::span<const T>
    takeList(std::vector<T> &scratch, size_t mark)
    {
        auto list = arena_.copy(std::span<const T>(scratch).subspan(mark));
        scratch.resize(mark);
        return list;
    }

    bool
    looksLikeType()
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

    /**
     * Skip a type: qualifiers/specifiers, optional struct/enum tag,
     * optional typedef-style identifier, then '*'s. Returns whether the
     * type is (syntactically) void with no pointers.
     */
    bool
    parseType()
    {
        bool is_void = false;
        bool saw_specifier = false;
        bool pointer = false;
        while (true) {
            Tok t = kind();
            if (isTypeStart(t)) {
                if (t == Tok::KwVoid)
                    is_void = true;
                advance();
                if ((t == Tok::KwStruct || t == Tok::KwEnum ||
                     t == Tok::KwUnion) &&
                    kind() == Tok::Ident) {
                    advance();
                }
                saw_specifier = true;
                continue;
            }
            if (t == Tok::Ident && !saw_specifier) {
                // typedef-style type name
                advance();
                saw_specifier = true;
                continue;
            }
            if (t == Tok::Star) {
                pointer = true;
                advance();
                continue;
            }
            break;
        }
        return is_void && !pointer;
    }

    void
    parseTopLevel(std::vector<AstFunction> &functions)
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

        const uint32_t begin = cur().offset;
        const int first_line = line();
        bool returns_void = parseType();
        if (kind() != Tok::Ident)
            err("expected function name");
        AstFunction fn;
        fn.begin = begin;
        fn.first_line = first_line;
        fn.name = intern(cur().text);
        fn.returns_value = !returns_void;
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
        size_t mark = params_.size();
        while (kind() != Tok::RParen) {
            if (kind() == Tok::Ellipsis) {
                fn.is_variadic = true;
                advance();
                break;
            }
            parseType();
            AstParam p;
            if (kind() == Tok::Ident) {
                p.name = intern(cur().text);
                advance();
            } else {
                p.name = ir::Name("p" + std::to_string(params_.size() - mark));
            }
            // Array suffix on parameters: skip.
            while (accept(Tok::LBracket)) {
                while (kind() != Tok::RBracket && kind() != Tok::End)
                    advance();
                expect(Tok::RBracket, "]");
            }
            params_.push_back(p);
            if (!accept(Tok::Comma))
                break;
        }
        expect(Tok::RParen, ")");
        fn.params = takeList(params_, mark);

        if (accept(Tok::Semi)) {
            fn.is_definition = false;
            fn.end = consumed_ + 1;
            functions.push_back(fn);
            return;
        }
        fn.is_definition = true;
        fn.body = parseBlock();
        fn.end = consumed_ + 1;   // the closing '}'
        functions.push_back(fn);
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

    AstStmt *
    makeStmt(AstStmtKind k)
    {
        AstStmt *s = arena_.make<AstStmt>();
        s->kind = k;
        s->line = line();
        return s;
    }

    /** Consume the current token, a label, as a one-name list. */
    std::span<const ir::Name>
    takeLabel()
    {
        ir::Name name = intern(cur().text);
        advance();
        return arena_.copy(std::span<const ir::Name>(&name, 1));
    }

    const AstStmt *
    parseBlock()
    {
        AstStmt *block = makeStmt(AstStmtKind::Block);
        expect(Tok::LBrace, "{");
        size_t mark = stmts_.size();
        while (kind() != Tok::RBrace) {
            if (kind() == Tok::End)
                err("unexpected end of input in block");
            stmts_.push_back(parseStmt());
        }
        advance();
        block->body = takeList(stmts_, mark);
        return block;
    }

    const AstStmt *
    parseStmt()
    {
        Nest nest(*this);
        switch (kind()) {
          case Tok::LBrace:
            return parseBlock();
          case Tok::Semi: {
            AstStmt *s = makeStmt(AstStmtKind::Empty);
            advance();
            return s;
          }
          case Tok::KwIf: {
            AstStmt *s = makeStmt(AstStmtKind::If);
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
            AstStmt *s = makeStmt(AstStmtKind::While);
            advance();
            expect(Tok::LParen, "(");
            s->cond = parseExpr();
            expect(Tok::RParen, ")");
            s->loop_body = parseStmt();
            return s;
          }
          case Tok::KwDo: {
            AstStmt *s = makeStmt(AstStmtKind::DoWhile);
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
            AstStmt *s = makeStmt(AstStmtKind::For);
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
            AstStmt *s = makeStmt(AstStmtKind::Return);
            advance();
            if (kind() != Tok::Semi)
                s->rhs = parseExpr();
            expect(Tok::Semi, ";");
            return s;
          }
          case Tok::KwGoto: {
            AstStmt *s = makeStmt(AstStmtKind::Goto);
            advance();
            if (kind() != Tok::Ident)
                err("expected label after goto");
            s->names = takeLabel();
            expect(Tok::Semi, ";");
            return s;
          }
          case Tok::KwBreak: {
            AstStmt *s = makeStmt(AstStmtKind::Break);
            advance();
            expect(Tok::Semi, ";");
            return s;
          }
          case Tok::KwContinue: {
            AstStmt *s = makeStmt(AstStmtKind::Continue);
            advance();
            expect(Tok::Semi, ";");
            return s;
          }
          case Tok::KwAssert: {
            AstStmt *s = makeStmt(AstStmtKind::Assert);
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
            AstStmt *s = makeStmt(AstStmtKind::Label);
            s->names = takeLabel();
            advance();
            return s;
        }
        return parseSimpleStmt(/*consume_semi=*/true);
    }

    /** Declaration, assignment or expression statement. */
    const AstStmt *
    parseSimpleStmt(bool consume_semi)
    {
        if (looksLikeType()) {
            AstStmt *s = makeStmt(AstStmtKind::Decl);
            parseType();
            size_t names_mark = names_.size();
            size_t inits_mark = exprs_.size();
            while (true) {
                // Extra '*' for subsequent declarators: int *a, *b;
                while (accept(Tok::Star)) {}
                if (kind() != Tok::Ident)
                    err("expected declarator name");
                names_.push_back(intern(cur().text));
                advance();
                while (accept(Tok::LBracket)) {
                    while (kind() != Tok::RBracket && kind() != Tok::End)
                        advance();
                    expect(Tok::RBracket, "]");
                }
                const AstExpr *init =
                    accept(Tok::Assign) ? parseExpr() : nullptr;
                exprs_.push_back(init);
                if (!accept(Tok::Comma))
                    break;
            }
            s->names = takeList(names_, names_mark);
            s->inits = takeList(exprs_, inits_mark);
            if (consume_semi)
                expect(Tok::Semi, ";");
            return s;
        }

        const AstExpr *lhs = parseExpr();
        if (kind() == Tok::Assign) {
            AstStmt *s = makeStmt(AstStmtKind::Assign);
            advance();
            s->lhs = lhs;
            s->rhs = parseExpr();
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
            AstStmt *s = makeStmt(AstStmtKind::Assign);
            std::string_view op = tokName(kind());
            advance();
            // `x op= e` becomes `x = x op e`. The tree is read-only, so
            // both sides share the node for x.
            AstExpr *bin = arena_.make<AstExpr>();
            bin->kind = AstExprKind::Binary;
            bin->text = ir::Name(op.substr(0, op.size() - 1));  // "+=" -> "+"
            bin->line = s->line;
            bin->a = lhs;
            bin->b = parseExpr();
            s->lhs = lhs;
            s->rhs = bin;
            if (consume_semi)
                expect(Tok::Semi, ";");
            return s;
          }
          default:
            break;
        }
        AstStmt *s = makeStmt(AstStmtKind::ExprStmt);
        s->rhs = lhs;
        if (consume_semi)
            expect(Tok::Semi, ";");
        return s;
    }

    AstExpr *
    makeExpr(AstExprKind k)
    {
        AstExpr *e = arena_.make<AstExpr>();
        e->kind = k;
        e->line = line();
        return e;
    }

    const AstExpr *parseExpr() { return parseTernary(); }

    const AstExpr *
    parseTernary()
    {
        const AstExpr *cond = parseBinary(0);
        if (kind() != Tok::Question)
            return cond;
        Nest nest(*this);
        AstExpr *e = makeExpr(AstExprKind::Ternary);
        advance();
        e->a = cond;
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

    const AstExpr *
    parseBinary(int min_prec)
    {
        const AstExpr *lhs = parseUnary();
        Nest chain(*this, 0);
        while (true) {
            int prec = precedence(kind());
            if (prec < 0 || prec < min_prec)
                return lhs;
            chain.deeper();
            AstExpr *e = makeExpr(AstExprKind::Binary);
            e->text = opName(kind());
            advance();
            e->a = lhs;
            e->b = parseBinary(prec + 1);
            lhs = e;
        }
    }

    const AstExpr *
    parseUnary()
    {
        switch (kind()) {
          case Tok::Not: case Tok::Minus: case Tok::Amp: case Tok::Star:
          case Tok::Tilde:
          // Prefix inc/dec used as an expression: value is nondet.
          case Tok::PlusPlus: case Tok::MinusMinus: {
            Nest nest(*this);
            AstExpr *e = makeExpr(AstExprKind::Unary);
            e->text = opName(kind());
            advance();
            e->a = parseUnary();
            return e;
          }
          case Tok::KwSizeof: {
            Nest nest(*this);
            advance();
            // sizeof(type-or-expr): consume parenthesized blob.
            AstExpr *e = makeExpr(AstExprKind::Number);
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
    looksCastLike()
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

    const AstExpr *
    parsePostfix()
    {
        const AstExpr *e = parsePrimary();
        Nest chain(*this, 0);
        while (true) {
            switch (kind()) {
              case Tok::Arrow:
              case Tok::Dot: {
                chain.deeper();
                AstExpr *f = makeExpr(AstExprKind::Field);
                advance();
                if (kind() != Tok::Ident)
                    err("expected field name");
                f->text = intern(cur().text);
                advance();
                f->a = e;
                e = f;
                break;
              }
              case Tok::LParen: {
                chain.deeper();
                AstExpr *call = makeExpr(AstExprKind::Call);
                advance();
                call->a = e;
                size_t mark = exprs_.size();
                while (kind() != Tok::RParen) {
                    const AstExpr *arg = parseExpr();
                    exprs_.push_back(arg);
                    if (!accept(Tok::Comma))
                        break;
                }
                expect(Tok::RParen, ")");
                call->args = takeList(exprs_, mark);
                e = call;
                break;
              }
              case Tok::LBracket: {
                chain.deeper();
                AstExpr *idx = makeExpr(AstExprKind::Index);
                advance();
                idx->a = e;
                idx->b = parseExpr();
                expect(Tok::RBracket, "]");
                e = idx;
                break;
              }
              case Tok::PlusPlus:
              case Tok::MinusMinus: {
                // Postfix inc/dec as an expression: nondet value.
                chain.deeper();
                AstExpr *u = makeExpr(AstExprKind::Unary);
                u->text = opName(kind());
                advance();
                u->a = e;
                e = u;
                break;
              }
              default:
                return e;
            }
        }
    }

    const AstExpr *
    parsePrimary()
    {
        switch (kind()) {
          case Tok::Ident: {
            AstExpr *e = makeExpr(AstExprKind::Ident);
            e->text = intern(cur().text);
            advance();
            return e;
          }
          case Tok::Number: {
            AstExpr *e = makeExpr(AstExprKind::Number);
            e->number = cur().number;
            advance();
            return e;
          }
          case Tok::String: {
            AstExpr *e = makeExpr(AstExprKind::String);
            advance();
            return e;
          }
          case Tok::KwNull: {
            AstExpr *e = makeExpr(AstExprKind::Null);
            advance();
            return e;
          }
          case Tok::KwTrue:
          case Tok::KwFalse: {
            AstExpr *e = makeExpr(AstExprKind::Bool);
            e->number = kind() == Tok::KwTrue ? 1 : 0;
            advance();
            return e;
          }
          case Tok::LParen: {
            Nest nest(*this);
            advance();
            const AstExpr *e = parseExpr();
            expect(Tok::RParen, ")");
            return e;
          }
          default:
            err("expected expression");
        }
    }

    TokenQueue toks_;
    AstArena &arena_;
    NameCache name_cache_;
    // Lists under construction, one stack per element type: a nested
    // list pushes above its parent's entries and takes them off again
    // when it moves into the arena.
    std::vector<const AstStmt *> stmts_;
    std::vector<const AstExpr *> exprs_;
    std::vector<ir::Name> names_;
    std::vector<AstParam> params_;
    int depth_ = 0;   ///< tree levels open (Nest)
    uint32_t consumed_ = 0;   ///< offset of the last token advanced past
};

} // anonymous namespace

AstUnit
parseUnit(std::string_view source, int first_line)
{
    obs::failpoint("frontend.parse");
    AstUnit unit;
    Parser(source, first_line, unit.arena).parse(unit.functions);
    return unit;
}

} // namespace rid::frontend
