#include "summary/spec.h"

#include <cctype>
#include <set>
#include <sstream>

namespace rid::summary {

namespace {

/** Minimal tokenizer for the spec language. */
struct SpecTok
{
    enum Kind {
        End, Ident, Number, LBrace, RBrace, LParen, RParen, LBracket,
        RBracket, Semi, Colon, Comma, Dot, Arrow, Percent,
        AndAnd, OrOr, Not, Eq, Ne, Lt, Le, Gt, Ge, PlusEq, MinusEq,
    } kind = End;
    std::string text;
    int64_t number = 0;
    int line = 0;
};

class SpecLexer
{
  public:
    explicit SpecLexer(const std::string &src) : src_(src) { advance(); }

    const SpecTok &cur() const { return cur_; }

    void
    advance()
    {
        skipSpace();
        cur_ = SpecTok{};
        cur_.line = line_;
        if (i_ >= src_.size())
            return;
        char c = src_[i_];
        auto two = [&](char c2) {
            return i_ + 1 < src_.size() && src_[i_ + 1] == c2;
        };
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            size_t start = i_;
            while (i_ < src_.size() &&
                   (std::isalnum(static_cast<unsigned char>(src_[i_])) ||
                    src_[i_] == '_')) {
                i_++;
            }
            cur_.kind = SpecTok::Ident;
            cur_.text = src_.substr(start, i_ - start);
            return;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '-' && i_ + 1 < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[i_ + 1])) &&
             !two('='))) {
            size_t start = i_;
            if (c == '-')
                i_++;
            while (i_ < src_.size() &&
                   std::isdigit(static_cast<unsigned char>(src_[i_]))) {
                i_++;
            }
            cur_.kind = SpecTok::Number;
            cur_.number = std::stoll(src_.substr(start, i_ - start));
            return;
        }
        switch (c) {
          case '{': cur_.kind = SpecTok::LBrace; i_++; return;
          case '}': cur_.kind = SpecTok::RBrace; i_++; return;
          case '(': cur_.kind = SpecTok::LParen; i_++; return;
          case ')': cur_.kind = SpecTok::RParen; i_++; return;
          case '[': cur_.kind = SpecTok::LBracket; i_++; return;
          case ']': cur_.kind = SpecTok::RBracket; i_++; return;
          case ';': cur_.kind = SpecTok::Semi; i_++; return;
          case ':': cur_.kind = SpecTok::Colon; i_++; return;
          case ',': cur_.kind = SpecTok::Comma; i_++; return;
          case '.': cur_.kind = SpecTok::Dot; i_++; return;
          case '%': cur_.kind = SpecTok::Percent; i_++; return;
          case '&':
            if (two('&')) { cur_.kind = SpecTok::AndAnd; i_ += 2; return; }
            break;
          case '|':
            if (two('|')) { cur_.kind = SpecTok::OrOr; i_ += 2; return; }
            break;
          case '!':
            if (two('=')) { cur_.kind = SpecTok::Ne; i_ += 2; return; }
            cur_.kind = SpecTok::Not;
            i_++;
            return;
          case '=':
            if (two('=')) { cur_.kind = SpecTok::Eq; i_ += 2; return; }
            break;
          case '<':
            if (two('=')) { cur_.kind = SpecTok::Le; i_ += 2; return; }
            cur_.kind = SpecTok::Lt;
            i_++;
            return;
          case '>':
            if (two('=')) { cur_.kind = SpecTok::Ge; i_ += 2; return; }
            cur_.kind = SpecTok::Gt;
            i_++;
            return;
          case '+':
            if (two('=')) { cur_.kind = SpecTok::PlusEq; i_ += 2; return; }
            break;
          case '-':
            if (two('=')) { cur_.kind = SpecTok::MinusEq; i_ += 2; return; }
            if (two('>')) { cur_.kind = SpecTok::Arrow; i_ += 2; return; }
            break;
          default:
            break;
        }
        throw SpecError(std::string("stray character '") + c + "'", line_);
    }

  private:
    void
    skipSpace()
    {
        while (i_ < src_.size()) {
            char c = src_[i_];
            if (c == '\n') {
                line_++;
                i_++;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                i_++;
            } else if (c == '#') {
                while (i_ < src_.size() && src_[i_] != '\n')
                    i_++;
            } else {
                break;
            }
        }
    }

    const std::string &src_;
    size_t i_ = 0;
    int line_ = 1;
    SpecTok cur_;
};

class SpecParser
{
  public:
    SpecParser(const std::string &src, const DomainTable *known)
        : lex_(src)
    {
        if (known)
            table_ = *known;
    }

    ParsedSpec
    parse()
    {
        // Duplicate summaries are legal here (computed-summary imports
        // concatenate exports, last wins); loadSpecsInto() rejects them
        // for predefined specs.
        ParsedSpec out;
        while (lex_.cur().kind != SpecTok::End) {
            if (lex_.cur().kind != SpecTok::Ident)
                err("expected 'domain' or 'summary'");
            if (lex_.cur().text == "domain")
                out.domains.push_back(parseDomain());
            else
                out.summaries.push_back(parseSummary());
        }
        return out;
    }

  private:
    [[noreturn]] void
    err(const std::string &msg)
    {
        throw SpecError(msg, lex_.cur().line);
    }

    void
    expect(SpecTok::Kind k, const char *what)
    {
        if (lex_.cur().kind != k)
            err(std::string("expected ") + what);
        lex_.advance();
    }

    bool
    acceptIdent(const char *word)
    {
        if (lex_.cur().kind == SpecTok::Ident && lex_.cur().text == word) {
            lex_.advance();
            return true;
        }
        return false;
    }

    std::string
    takeIdent(const char *what)
    {
        if (lex_.cur().kind != SpecTok::Ident)
            err(std::string("expected ") + what);
        std::string s = lex_.cur().text;
        lex_.advance();
        return s;
    }

    DomainInfo
    parseDomain()
    {
        int decl_line = lex_.cur().line;
        if (!acceptIdent("domain"))
            err("expected 'domain'");
        DomainInfo info;
        info.name = takeIdent("domain name");
        expect(SpecTok::LBrace, "{");
        bool saw_policy = false;
        while (lex_.cur().kind != SpecTok::RBrace) {
            std::string key = takeIdent("'policy'");
            expect(SpecTok::Colon, ":");
            if (key == "policy") {
                std::string word = takeIdent("'ipp' or 'balanced'");
                if (!parseDomainPolicy(word, &info.policy))
                    err("unknown policy '" + word +
                        "' (expected 'ipp' or 'balanced')");
                saw_policy = true;
            } else {
                err("unknown domain key '" + key + "'");
            }
            expect(SpecTok::Semi, ";");
        }
        expect(SpecTok::RBrace, "}");
        if (!saw_policy)
            throw SpecError("domain '" + info.name +
                                "' declares no policy",
                            decl_line);
        if (table_.declare(info) == DomainTable::DeclareResult::Conflict) {
            throw SpecError(
                "domain '" + info.name + "' redeclared with policy '" +
                    domainPolicyName(info.policy) + "' (was '" +
                    domainPolicyName(table_.policyOf(info.name)) + "')",
                decl_line);
        }
        return info;
    }

    ParsedSummary
    parseSummary()
    {
        int decl_line = lex_.cur().line;
        if (!acceptIdent("summary"))
            err("expected 'summary' (or a 'domain' declaration)");
        ParsedSummary out;
        out.line = decl_line;
        out.summary.function = takeIdent("function name");
        expect(SpecTok::LParen, "(");
        while (lex_.cur().kind != SpecTok::RParen) {
            out.params.push_back(takeIdent("parameter name"));
            if (lex_.cur().kind == SpecTok::Comma)
                lex_.advance();
            else
                break;
        }
        expect(SpecTok::RParen, ")");
        expect(SpecTok::Arrow, "->");
        std::string ret_type = takeIdent("return type");
        out.returns_value = ret_type != "void";
        out.summary.params = out.params;
        out.summary.returns_value = out.returns_value;
        while (lex_.cur().kind == SpecTok::Ident) {
            if (acceptIdent("default"))
                out.summary.is_default = true;
            else if (acceptIdent("truncated"))
                out.summary.is_truncated = true;
            else
                err("unknown summary flag");
        }
        expect(SpecTok::LBrace, "{");
        while (lex_.cur().kind != SpecTok::RBrace)
            out.summary.entries.push_back(parseEntry(out.returns_value));
        expect(SpecTok::RBrace, "}");
        return out;
    }

    SummaryEntry
    parseEntry(bool returns_value)
    {
        if (!acceptIdent("entry"))
            err("expected 'entry'");
        expect(SpecTok::LBrace, "{");
        SummaryEntry e;
        e.cons = smt::Formula::top();
        bool saw_return = false;
        while (lex_.cur().kind != SpecTok::RBrace) {
            std::string key = takeIdent("'cons', 'change' or 'return'");
            // `change(domain):` tags the effect; plain `change:` is the
            // builtin ref domain.
            std::string domain = kRefDomain;
            if (key == "change" && lex_.cur().kind == SpecTok::LParen) {
                lex_.advance();
                domain = takeIdent("domain name");
                if (!table_.contains(domain))
                    err("unknown domain '" + domain +
                        "' (declare it first: domain " + domain +
                        " { policy: ...; })");
                expect(SpecTok::RParen, ")");
            }
            expect(SpecTok::Colon, ":");
            if (key == "cons") {
                e.cons = parseOr();
            } else if (key == "change") {
                smt::Expr rc = parseTerm();
                int sign;
                if (lex_.cur().kind == SpecTok::PlusEq)
                    sign = 1;
                else if (lex_.cur().kind == SpecTok::MinusEq)
                    sign = -1;
                else
                    err("expected += or -=");
                lex_.advance();
                if (lex_.cur().kind != SpecTok::Number)
                    err("expected change amount");
                e.changes[EffectKey(domain, rc)] += sign * lex_.cur().number;
                lex_.advance();
            } else if (key == "store") {
                e.stores.insert(parseTerm());
            } else if (key == "return") {
                saw_return = true;
                if (!acceptIdent("none"))
                    e.ret = parseTerm();
            } else {
                err("unknown entry key '" + key + "'");
            }
            expect(SpecTok::Semi, ";");
        }
        expect(SpecTok::RBrace, "}");
        if (!saw_return && returns_value)
            e.ret = smt::Expr::ret();
        e.normalizeChanges();
        return e;
    }

    smt::Formula
    parseOr()
    {
        std::vector<smt::Formula> parts{parseAnd()};
        while (lex_.cur().kind == SpecTok::OrOr) {
            lex_.advance();
            parts.push_back(parseAnd());
        }
        return smt::Formula::disj(std::move(parts));
    }

    smt::Formula
    parseAnd()
    {
        std::vector<smt::Formula> parts{parseAtomFormula()};
        while (lex_.cur().kind == SpecTok::AndAnd) {
            lex_.advance();
            parts.push_back(parseAtomFormula());
        }
        return smt::Formula::conj(std::move(parts));
    }

    smt::Formula
    parseAtomFormula()
    {
        if (acceptIdent("true"))
            return smt::Formula::top();
        if (acceptIdent("false"))
            return smt::Formula::bottom();
        if (lex_.cur().kind == SpecTok::Not) {
            lex_.advance();
            expect(SpecTok::LParen, "(");
            smt::Formula f = parseOr();
            expect(SpecTok::RParen, ")");
            return smt::Formula::negation(std::move(f));
        }
        if (lex_.cur().kind == SpecTok::LParen) {
            lex_.advance();
            smt::Formula f = parseOr();
            expect(SpecTok::RParen, ")");
            return f;
        }
        smt::Expr lhs = parseTerm();
        smt::Pred pred;
        switch (lex_.cur().kind) {
          case SpecTok::Eq: pred = smt::Pred::Eq; break;
          case SpecTok::Ne: pred = smt::Pred::Ne; break;
          case SpecTok::Lt: pred = smt::Pred::Lt; break;
          case SpecTok::Le: pred = smt::Pred::Le; break;
          case SpecTok::Gt: pred = smt::Pred::Gt; break;
          case SpecTok::Ge: pred = smt::Pred::Ge; break;
          default: err("expected comparison operator");
        }
        lex_.advance();
        smt::Expr rhs = parseTerm();
        return smt::Formula::lit(smt::Expr::cmp(pred, lhs, rhs));
    }

    smt::Expr
    parseTerm()
    {
        smt::Expr base;
        switch (lex_.cur().kind) {
          case SpecTok::LBracket: {
            lex_.advance();
            if (lex_.cur().kind == SpecTok::Number) {
                if (lex_.cur().number != 0)
                    err("only [0] denotes the return value");
                base = smt::Expr::ret();
                lex_.advance();
            } else {
                base = smt::Expr::arg(takeIdent("argument name"));
            }
            expect(SpecTok::RBracket, "]");
            break;
          }
          case SpecTok::Percent:
            lex_.advance();
            base = smt::Expr::temp(takeIdent("temp name"));
            break;
          case SpecTok::Number:
            base = smt::Expr::intConst(lex_.cur().number);
            lex_.advance();
            break;
          case SpecTok::Ident:
            if (lex_.cur().text == "null") {
                base = smt::Expr::null();
                lex_.advance();
            } else if (lex_.cur().text == "true") {
                base = smt::Expr::boolConst(true);
                lex_.advance();
            } else if (lex_.cur().text == "false") {
                base = smt::Expr::boolConst(false);
                lex_.advance();
            } else {
                base = smt::Expr::local(takeIdent("identifier"));
            }
            break;
          default:
            err("expected a term");
        }
        while (lex_.cur().kind == SpecTok::Dot) {
            lex_.advance();
            base = smt::Expr::field(base, takeIdent("field name"));
        }
        return base;
    }

    SpecLexer lex_;
    DomainTable table_;
};

} // anonymous namespace

ParsedSpec
parseSpecText(const std::string &text, const DomainTable *known)
{
    SpecParser p(text, known);
    return p.parse();
}

void
loadSpecsInto(const std::string &text, SummaryDb &db)
{
    DomainTable known = db.domains();
    ParsedSpec spec = parseSpecText(text, &known);
    std::set<std::string> seen;
    for (const auto &parsed : spec.summaries) {
        if (!seen.insert(parsed.summary.function).second ||
            db.hasPredefined(parsed.summary.function)) {
            throw SpecError("duplicate summary for '" +
                                parsed.summary.function + "'",
                            parsed.line);
        }
    }
    for (const auto &d : spec.domains)
        db.declareDomain(d);
    for (auto &parsed : spec.summaries)
        db.addPredefined(std::move(parsed.summary));
}

std::string
serializeSummary(const FunctionSummary &s)
{
    std::vector<std::string> params = s.params;
    bool returns_value = s.returns_value;
    if (params.empty()) {
        // Legacy summaries without a signature: recover parameter names
        // from the argument atoms used anywhere in the entries.
        std::set<std::string> names;
        auto collect = [&names](const smt::Expr &e) {
            e.containsIf([&names](const smt::Expr &sub) {
                if (sub.kind() == smt::ExprKind::Arg)
                    names.insert(sub.name());
                return false;
            });
        };
        for (const auto &e : s.entries) {
            for (const auto &lit : e.cons.literals())
                collect(lit);
            for (const auto &[rc, delta] : e.changes)
                collect(rc.counter);
            if (e.ret) {
                collect(e.ret);
                returns_value = true;
            }
        }
        params.assign(names.begin(), names.end());
    }

    std::ostringstream os;
    os << "summary " << s.function << "(";
    bool first = true;
    for (const auto &p : params) {
        if (!first)
            os << ", ";
        first = false;
        os << p;
    }
    os << ") -> " << (returns_value ? "int" : "void");
    if (s.is_default)
        os << " default";
    if (s.is_truncated)
        os << " truncated";
    os << " {\n";
    for (const auto &e : s.entries) {
        os << "  entry { cons: " << e.cons.str() << ";";
        for (const auto &[rc, delta] : e.changes) {
            os << " change";
            if (!rc.isRef())
                os << "(" << rc.domain << ")";
            os << ": " << rc.counter.str()
               << (delta >= 0 ? " += " : " -= ")
               << (delta >= 0 ? delta : -delta) << ";";
        }
        for (const auto &s : e.stores)
            os << " store: " << s.str() << ";";
        os << " return: " << (e.ret ? e.ret.str() : "none") << "; }\n";
    }
    os << "}\n";
    return os.str();
}

} // namespace rid::summary
