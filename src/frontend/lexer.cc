#include "frontend/lexer.h"

#include <charconv>
#include <cstring>

namespace rid::frontend {

const char *
tokName(Tok t)
{
    switch (t) {
      case Tok::End: return "<eof>";
      case Tok::Ident: return "identifier";
      case Tok::Number: return "number";
      case Tok::String: return "string";
      case Tok::KwInt: return "int";
      case Tok::KwVoid: return "void";
      case Tok::KwStruct: return "struct";
      case Tok::KwEnum: return "enum";
      case Tok::KwUnion: return "union";
      case Tok::KwIf: return "if";
      case Tok::KwElse: return "else";
      case Tok::KwWhile: return "while";
      case Tok::KwFor: return "for";
      case Tok::KwReturn: return "return";
      case Tok::KwGoto: return "goto";
      case Tok::KwNull: return "NULL";
      case Tok::KwTrue: return "true";
      case Tok::KwFalse: return "false";
      case Tok::KwAssert: return "assert";
      case Tok::KwStatic: return "static";
      case Tok::KwExtern: return "extern";
      case Tok::KwConst: return "const";
      case Tok::KwUnsigned: return "unsigned";
      case Tok::KwSigned: return "signed";
      case Tok::KwLong: return "long";
      case Tok::KwShort: return "short";
      case Tok::KwChar: return "char";
      case Tok::KwBool: return "bool";
      case Tok::KwBreak: return "break";
      case Tok::KwContinue: return "continue";
      case Tok::KwInline: return "inline";
      case Tok::KwVolatile: return "volatile";
      case Tok::KwTypedef: return "typedef";
      case Tok::KwSizeof: return "sizeof";
      case Tok::KwDo: return "do";
      case Tok::KwSwitch: return "switch";
      case Tok::KwCase: return "case";
      case Tok::KwDefault: return "default";
      case Tok::LParen: return "(";
      case Tok::RParen: return ")";
      case Tok::LBrace: return "{";
      case Tok::RBrace: return "}";
      case Tok::LBracket: return "[";
      case Tok::RBracket: return "]";
      case Tok::Semi: return ";";
      case Tok::Comma: return ",";
      case Tok::Colon: return ":";
      case Tok::Question: return "?";
      case Tok::Assign: return "=";
      case Tok::PlusAssign: return "+=";
      case Tok::MinusAssign: return "-=";
      case Tok::StarAssign: return "*=";
      case Tok::SlashAssign: return "/=";
      case Tok::PercentAssign: return "%=";
      case Tok::AmpAssign: return "&=";
      case Tok::PipeAssign: return "|=";
      case Tok::CaretAssign: return "^=";
      case Tok::ShlAssign: return "<<=";
      case Tok::ShrAssign: return ">>=";
      case Tok::Eq: return "==";
      case Tok::Ne: return "!=";
      case Tok::Lt: return "<";
      case Tok::Le: return "<=";
      case Tok::Gt: return ">";
      case Tok::Ge: return ">=";
      case Tok::AndAnd: return "&&";
      case Tok::OrOr: return "||";
      case Tok::Not: return "!";
      case Tok::Plus: return "+";
      case Tok::Minus: return "-";
      case Tok::Star: return "*";
      case Tok::Slash: return "/";
      case Tok::Percent: return "%";
      case Tok::Amp: return "&";
      case Tok::Pipe: return "|";
      case Tok::Caret: return "^";
      case Tok::Tilde: return "~";
      case Tok::Shl: return "<<";
      case Tok::Shr: return ">>";
      case Tok::PlusPlus: return "++";
      case Tok::MinusMinus: return "--";
      case Tok::Arrow: return "->";
      case Tok::Dot: return ".";
      case Tok::Ellipsis: return "...";
    }
    return "?";
}

namespace {

// Character classes of the C locale, spelled out so the lexer makes no
// locale calls: bytes outside ASCII are never letters, digits or space.
bool isDigit(char c) { return c >= '0' && c <= '9'; }
bool
isAlpha(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool isAlnum(char c) { return isAlpha(c) || isDigit(c); }
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

/** The keyword spelled @p w, or Tok::Ident. Dispatches on length and
 *  first character, so most identifiers cost one or two compares. */
Tok
keywordOf(std::string_view w)
{
    auto is = [&](std::string_view kw, Tok t) {
        return w == kw ? t : Tok::Ident;
    };
    switch (w.size()) {
      case 2:
        switch (w[0]) {
          case 'i': return is("if", Tok::KwIf);
          case 'd': return is("do", Tok::KwDo);
        }
        break;
      case 3:
        switch (w[0]) {
          case 'i': return is("int", Tok::KwInt);
          case 'f': return is("for", Tok::KwFor);
        }
        break;
      case 4:
        switch (w[0]) {
          case 'v': return is("void", Tok::KwVoid);
          case 'e': return w == "enum" ? Tok::KwEnum
                                       : is("else", Tok::KwElse);
          case 'g': return is("goto", Tok::KwGoto);
          case 'N': return is("NULL", Tok::KwNull);
          case 't': return is("true", Tok::KwTrue);
          case 'c': return w == "char" ? Tok::KwChar
                                       : is("case", Tok::KwCase);
          case 'b': return is("bool", Tok::KwBool);
          case 'l': return is("long", Tok::KwLong);
        }
        break;
      case 5:
        switch (w[0]) {
          case 'u': return is("union", Tok::KwUnion);
          case 'w': return is("while", Tok::KwWhile);
          case 'f': return is("false", Tok::KwFalse);
          case 'c': return is("const", Tok::KwConst);
          case 's': return is("short", Tok::KwShort);
          case 'b': return is("break", Tok::KwBreak);
        }
        break;
      case 6:
        switch (w[0]) {
          case 's':
            switch (w[1]) {
              case 't': return w == "struct" ? Tok::KwStruct
                                             : is("static", Tok::KwStatic);
              case 'i': return w == "signed" ? Tok::KwSigned
                                             : is("sizeof", Tok::KwSizeof);
              case 'w': return is("switch", Tok::KwSwitch);
            }
            break;
          case 'r': return is("return", Tok::KwReturn);
          case 'a': return is("assert", Tok::KwAssert);
          case 'e': return is("extern", Tok::KwExtern);
          case 'i': return is("inline", Tok::KwInline);
        }
        break;
      case 7:
        switch (w[0]) {
          case 't': return is("typedef", Tok::KwTypedef);
          case 'd': return is("default", Tok::KwDefault);
        }
        break;
      case 8:
        switch (w[0]) {
          case 'u': return is("unsigned", Tok::KwUnsigned);
          case 'c': return is("continue", Tok::KwContinue);
          case 'v': return is("volatile", Tok::KwVolatile);
        }
        break;
    }
    return Tok::Ident;
}

/** Value of the number literal @p text (its whole alphanumeric run). */
int64_t
parseNumber(std::string_view text, int line)
{
    // Strip integer suffixes (u, l, ul, ull...), then the hex prefix;
    // what remains must be all digits of the base and in range.
    std::string_view digits = text;
    while (!digits.empty() && strchr("uUlL", digits.back()) != nullptr)
        digits.remove_suffix(1);
    int base = 10;
    if (digits.size() >= 2 && digits[0] == '0' &&
        (digits[1] == 'x' || digits[1] == 'X')) {
        base = 16;
        digits.remove_prefix(2);
    }
    int64_t value = 0;
    auto [end, ec] = std::from_chars(digits.data(),
                                     digits.data() + digits.size(), value,
                                     base);
    if (ec != std::errc() || end != digits.data() + digits.size())
        throw ParseError("bad numeric literal '" + std::string(text) + "'",
                         line);
    return value;
}

} // anonymous namespace

std::vector<Token>
tokenize(std::string_view src)
{
    std::vector<Token> out;
    out.reserve(src.size() / 4 + 16);
    size_t i = 0;
    int line = 1;
    const size_t n = src.size();

    auto peek = [&](size_t off = 0) -> char {
        return i + off < n ? src[i + off] : '\0';
    };
    auto push = [&](Tok kind, std::string_view text = {}, int64_t num = 0) {
        out.push_back(Token{kind, line, num, text});
    };

    while (i < n) {
        char c = src[i];
        if (c == '\n') {
            line++;
            i++;
            continue;
        }
        if (isSpace(c)) {
            i++;
            continue;
        }
        // Preprocessor lines: skip to end of line (no continuations).
        if (c == '#') {
            while (i < n && src[i] != '\n')
                i++;
            continue;
        }
        if (c == '/' && peek(1) == '/') {
            while (i < n && src[i] != '\n')
                i++;
            continue;
        }
        if (c == '/' && peek(1) == '*') {
            int start_line = line;
            i += 2;
            while (i < n && !(src[i] == '*' && peek(1) == '/')) {
                if (src[i] == '\n')
                    line++;
                i++;
            }
            if (i >= n)
                throw ParseError("unterminated comment", start_line);
            i += 2;
            continue;
        }
        if (isAlpha(c) || c == '_') {
            size_t start = i;
            while (i < n && (isAlnum(src[i]) || src[i] == '_'))
                i++;
            std::string_view word = src.substr(start, i - start);
            push(keywordOf(word), word);
            continue;
        }
        if (isDigit(c)) {
            size_t start = i;
            while (i < n && isAlnum(src[i]))
                i++;
            std::string_view text = src.substr(start, i - start);
            push(Tok::Number, text, parseNumber(text, line));
            continue;
        }
        if (c == '"' || c == '\'') {
            char quote = c;
            int start_line = line;
            size_t start = ++i;
            while (i < n && src[i] != quote) {
                if (src[i] == '\\' && i + 1 < n) {
                    i += 2;
                    continue;
                }
                if (src[i] == '\n')
                    line++;
                i++;
            }
            if (i >= n)
                throw ParseError("unterminated string", start_line);
            std::string_view text = src.substr(start, i - start);
            i++;
            if (quote == '\'') {
                // Character constants become their numeric value.
                int64_t v = text.empty() ? 0
                            : text[0] == '\\' ? 0
                                              : static_cast<int64_t>(text[0]);
                push(Tok::Number, text, v);
            } else {
                push(Tok::String, text);
            }
            continue;
        }

        auto two = [&](char c2) { return peek(1) == c2; };
        switch (c) {
          case '(': push(Tok::LParen); i++; break;
          case ')': push(Tok::RParen); i++; break;
          case '{': push(Tok::LBrace); i++; break;
          case '}': push(Tok::RBrace); i++; break;
          case '[': push(Tok::LBracket); i++; break;
          case ']': push(Tok::RBracket); i++; break;
          case ';': push(Tok::Semi); i++; break;
          case ',': push(Tok::Comma); i++; break;
          case ':': push(Tok::Colon); i++; break;
          case '?': push(Tok::Question); i++; break;
          case '~': push(Tok::Tilde); i++; break;
          case '=':
            if (two('=')) { push(Tok::Eq); i += 2; }
            else { push(Tok::Assign); i++; }
            break;
          case '!':
            if (two('=')) { push(Tok::Ne); i += 2; }
            else { push(Tok::Not); i++; }
            break;
          case '<':
            if (two('=')) { push(Tok::Le); i += 2; }
            else if (two('<')) {
                if (peek(2) == '=') { push(Tok::ShlAssign); i += 3; }
                else { push(Tok::Shl); i += 2; }
            } else { push(Tok::Lt); i++; }
            break;
          case '>':
            if (two('=')) { push(Tok::Ge); i += 2; }
            else if (two('>')) {
                if (peek(2) == '=') { push(Tok::ShrAssign); i += 3; }
                else { push(Tok::Shr); i += 2; }
            } else { push(Tok::Gt); i++; }
            break;
          case '&':
            if (two('&')) { push(Tok::AndAnd); i += 2; }
            else if (two('=')) { push(Tok::AmpAssign); i += 2; }
            else { push(Tok::Amp); i++; }
            break;
          case '|':
            if (two('|')) { push(Tok::OrOr); i += 2; }
            else if (two('=')) { push(Tok::PipeAssign); i += 2; }
            else { push(Tok::Pipe); i++; }
            break;
          case '^':
            if (two('=')) { push(Tok::CaretAssign); i += 2; }
            else { push(Tok::Caret); i++; }
            break;
          case '+':
            if (two('+')) { push(Tok::PlusPlus); i += 2; }
            else if (two('=')) { push(Tok::PlusAssign); i += 2; }
            else { push(Tok::Plus); i++; }
            break;
          case '-':
            if (two('-')) { push(Tok::MinusMinus); i += 2; }
            else if (two('=')) { push(Tok::MinusAssign); i += 2; }
            else if (two('>')) { push(Tok::Arrow); i += 2; }
            else { push(Tok::Minus); i++; }
            break;
          case '*':
            if (two('=')) { push(Tok::StarAssign); i += 2; }
            else { push(Tok::Star); i++; }
            break;
          case '/':
            if (two('=')) { push(Tok::SlashAssign); i += 2; }
            else { push(Tok::Slash); i++; }
            break;
          case '%':
            if (two('=')) { push(Tok::PercentAssign); i += 2; }
            else { push(Tok::Percent); i++; }
            break;
          case '.':
            if (two('.') && peek(2) == '.') { push(Tok::Ellipsis); i += 3; }
            else { push(Tok::Dot); i++; }
            break;
          default:
            throw ParseError(std::string("stray character '") + c + "'",
                             line);
        }
    }
    push(Tok::End);
    return out;
}

} // namespace rid::frontend
