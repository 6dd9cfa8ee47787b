#include "frontend/lexer.h"

#include <algorithm>
#include <array>
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

// Byte classes of the C locale, spelled out in a table so the lexer
// makes no locale calls: bytes outside ASCII are never letters, digits
// or blanks.
enum : uint8_t {
    kBlank = 1 << 0,       ///< whitespace other than '\n'
    kLetter = 1 << 1,
    kDigit = 1 << 2,
    kUnderscore = 1 << 3,
    kIdentStart = kLetter | kUnderscore,
    kIdentChar = kLetter | kDigit | kUnderscore,
    kAlnum = kLetter | kDigit,
};

constexpr std::array<uint8_t, 256> kClass = [] {
    std::array<uint8_t, 256> t{};
    for (char c : std::string_view(" \t\v\f\r"))
        t[static_cast<unsigned char>(c)] = kBlank;
    for (int c = 'a'; c <= 'z'; c++)
        t[c] = t[c - 'a' + 'A'] = kLetter;
    for (int c = '0'; c <= '9'; c++)
        t[c] = kDigit;
    t['_'] = kUnderscore;
    return t;
}();

uint8_t
classOf(char c)
{
    return kClass[static_cast<unsigned char>(c)];
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

/** Parse the number literal @p text (its whole alphanumeric run) into
 *  @p value; false if it is malformed or out of range. */
bool
parseNumber(std::string_view text, int64_t &value)
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
    auto [end, ec] = std::from_chars(digits.data(),
                                     digits.data() + digits.size(), value,
                                     base);
    return ec == std::errc() && end == digits.data() + digits.size();
}

} // anonymous namespace

void
Lexer::fail(std::string msg, int line)
{
    i_ = src_.size();
    throw ParseError(std::move(msg), line);
}

Token
Lexer::next()
{
    const std::string_view src = src_;
    const size_t n = src.size();
    auto at = [&](size_t off) -> char {
        return i_ + off < n ? src[i_ + off] : '\0';
    };
    size_t begin = i_;   // where the token being scanned starts
    auto token = [&](Tok kind, std::string_view text = {},
                     int64_t num = 0) {
        return Token{kind, line_, num, text, static_cast<uint32_t>(begin)};
    };
    auto punct = [&](Tok kind, size_t len) {
        i_ += len;
        return token(kind);
    };

    while (i_ < n) {
        begin = i_;
        const char c = src[i_];
        const uint8_t cls = classOf(c);
        if (cls & kBlank) {
            i_++;
            continue;
        }
        if (cls & kIdentStart) {
            size_t start = i_++;
            while (i_ < n && (classOf(src[i_]) & kIdentChar))
                i_++;
            std::string_view word = src.substr(start, i_ - start);
            return token(keywordOf(word), word);
        }
        if (cls & kDigit) {
            size_t start = i_++;
            while (i_ < n && (classOf(src[i_]) & kAlnum))
                i_++;
            std::string_view text = src.substr(start, i_ - start);
            int64_t value = 0;
            if (!parseNumber(text, value))
                fail("bad numeric literal '" + std::string(text) + "'",
                     line_);
            return token(Tok::Number, text, value);
        }

        auto two = [&](char c2) { return at(1) == c2; };
        switch (c) {
          case '\n':
            line_++;
            i_++;
            continue;
          case '#':
            // Preprocessor line: skip to its end (no continuations).
            i_ = std::min(src.find('\n', i_), n);
            continue;
          case '"':
          case '\'': {
            int start_line = line_;
            size_t start = ++i_;
            while (i_ < n && src[i_] != c) {
                if (src[i_] == '\\' && i_ + 1 < n) {
                    i_ += 2;
                    continue;
                }
                if (src[i_] == '\n')
                    line_++;
                i_++;
            }
            if (i_ >= n)
                fail("unterminated string", start_line);
            std::string_view text = src.substr(start, i_ - start);
            i_++;
            // A literal's line is the one its closing quote is on.
            if (c == '"')
                return token(Tok::String, text);
            // Character constants become their numeric value.
            int64_t v = text.empty() || text[0] == '\\'
                            ? 0
                            : static_cast<int64_t>(text[0]);
            return token(Tok::Number, text, v);
          }
          case '/':
            if (two('/')) {
                i_ = std::min(src.find('\n', i_), n);
                continue;
            }
            if (two('*')) {
                size_t close = src.find("*/", i_ + 2);
                if (close == std::string_view::npos)
                    fail("unterminated comment", line_);
                line_ += static_cast<int>(
                    std::count(src.begin() + i_ + 2, src.begin() + close,
                               '\n'));
                i_ = close + 2;
                continue;
            }
            return two('=') ? punct(Tok::SlashAssign, 2)
                            : punct(Tok::Slash, 1);
          case '(': return punct(Tok::LParen, 1);
          case ')': return punct(Tok::RParen, 1);
          case '{': return punct(Tok::LBrace, 1);
          case '}': return punct(Tok::RBrace, 1);
          case '[': return punct(Tok::LBracket, 1);
          case ']': return punct(Tok::RBracket, 1);
          case ';': return punct(Tok::Semi, 1);
          case ',': return punct(Tok::Comma, 1);
          case ':': return punct(Tok::Colon, 1);
          case '?': return punct(Tok::Question, 1);
          case '~': return punct(Tok::Tilde, 1);
          case '=':
            return two('=') ? punct(Tok::Eq, 2) : punct(Tok::Assign, 1);
          case '!':
            return two('=') ? punct(Tok::Ne, 2) : punct(Tok::Not, 1);
          case '<':
            if (two('='))
                return punct(Tok::Le, 2);
            if (two('<'))
                return at(2) == '=' ? punct(Tok::ShlAssign, 3)
                                    : punct(Tok::Shl, 2);
            return punct(Tok::Lt, 1);
          case '>':
            if (two('='))
                return punct(Tok::Ge, 2);
            if (two('>'))
                return at(2) == '=' ? punct(Tok::ShrAssign, 3)
                                    : punct(Tok::Shr, 2);
            return punct(Tok::Gt, 1);
          case '&':
            if (two('&'))
                return punct(Tok::AndAnd, 2);
            return two('=') ? punct(Tok::AmpAssign, 2)
                            : punct(Tok::Amp, 1);
          case '|':
            if (two('|'))
                return punct(Tok::OrOr, 2);
            return two('=') ? punct(Tok::PipeAssign, 2)
                            : punct(Tok::Pipe, 1);
          case '^':
            return two('=') ? punct(Tok::CaretAssign, 2)
                            : punct(Tok::Caret, 1);
          case '+':
            if (two('+'))
                return punct(Tok::PlusPlus, 2);
            return two('=') ? punct(Tok::PlusAssign, 2)
                            : punct(Tok::Plus, 1);
          case '-':
            if (two('-'))
                return punct(Tok::MinusMinus, 2);
            if (two('='))
                return punct(Tok::MinusAssign, 2);
            return two('>') ? punct(Tok::Arrow, 2) : punct(Tok::Minus, 1);
          case '*':
            return two('=') ? punct(Tok::StarAssign, 2)
                            : punct(Tok::Star, 1);
          case '%':
            return two('=') ? punct(Tok::PercentAssign, 2)
                            : punct(Tok::Percent, 1);
          case '.':
            return two('.') && at(2) == '.' ? punct(Tok::Ellipsis, 3)
                                            : punct(Tok::Dot, 1);
          default:
            fail(std::string("stray character '") + c + "'", line_);
        }
    }
    begin = n;
    return token(Tok::End);
}

std::vector<Token>
tokenize(std::string_view src)
{
    std::vector<Token> out;
    out.reserve(src.size() / 4 + 16);
    Lexer lexer(src);
    do
        out.push_back(lexer.next());
    while (out.back().kind != Tok::End);
    return out;
}

} // namespace rid::frontend
