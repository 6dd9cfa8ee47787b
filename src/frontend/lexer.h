/**
 * @file
 * Lexer for Kernel-C, the C subset accepted by RID's front-end.
 *
 * Kernel-C covers the code shapes of the paper's examples (Figures 1, 8,
 * 9, 10): function definitions and prototypes, scalar and pointer
 * declarations, if/else, while/for, goto/labels, return, assert, calls,
 * field access and the usual comparison/logical operators. Preprocessor
 * lines and comments are skipped.
 *
 * The Lexer is pulled: next() scans one token at a time, so the parser
 * holds only the few tokens it looks ahead at, never the whole file.
 * Bytes are classified through a 256-entry table, and comment and
 * preprocessor lines are skipped with a search for their end. Tokens
 * copy nothing: a token's text views the source buffer, so it is valid
 * only while that buffer is alive and unchanged. tokenize() collects a
 * whole file's tokens for callers that want the stream at once.
 */

#ifndef RID_FRONTEND_LEXER_H
#define RID_FRONTEND_LEXER_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rid::frontend {

enum class Tok : uint8_t {
    End,
    Ident,
    Number,
    String,
    // keywords
    KwInt, KwVoid, KwStruct, KwEnum, KwUnion, KwIf, KwElse, KwWhile, KwFor,
    KwReturn, KwGoto, KwNull, KwTrue, KwFalse, KwAssert, KwStatic, KwExtern,
    KwConst, KwUnsigned, KwSigned, KwLong, KwShort, KwChar, KwBool,
    KwBreak, KwContinue, KwInline, KwVolatile, KwTypedef, KwSizeof, KwDo,
    KwSwitch, KwCase, KwDefault,
    // punctuation / operators
    LParen, RParen, LBrace, RBrace, LBracket, RBracket,
    Semi, Comma, Colon, Question,
    Assign,          // =
    PlusAssign, MinusAssign, StarAssign, SlashAssign, PercentAssign,
    AmpAssign, PipeAssign, CaretAssign, ShlAssign, ShrAssign,
    Eq, Ne, Lt, Le, Gt, Ge,
    AndAnd, OrOr, Not,
    Plus, Minus, Star, Slash, Percent,
    Amp, Pipe, Caret, Tilde, Shl, Shr,
    PlusPlus, MinusMinus,
    Arrow, Dot,
    Ellipsis,
};

const char *tokName(Tok t);

struct Token
{
    Tok kind = Tok::End;
    int line = 0;
    int64_t number = 0;     ///< numeric value for Number
    /** Spelling of an identifier, keyword or number literal, or the
     *  contents of a string or character literal between its quotes
     *  (escapes verbatim); empty for punctuation and End. Views the
     *  source buffer. */
    std::string_view text;
    /** Byte offset of the token's first character (of End: the source
     *  size). A unit's source is under 4 GiB. */
    uint32_t offset = 0;
};

/** Error raised by the lexer or parser; carries a source line. */
class ParseError : public std::runtime_error
{
  public:
    ParseError(std::string msg, int line)
        : std::runtime_error(std::move(msg)), line_(line)
    {}
    int line() const { return line_; }

  private:
    int line_;
};

/** Scans Kernel-C source one token at a time. */
class Lexer
{
  public:
    /** Scan @p source, which must outlive the lexer and its tokens,
     *  counting lines from @p first_line (a function's span starts on
     *  the line it has in its whole unit). */
    explicit Lexer(std::string_view source, int first_line = 1)
        : src_(source), line_(first_line)
    {}

    /**
     * The next token; Tok::End, forever, once the input is used up.
     *
     * @throws ParseError on malformed input (see tokenize()). The lexer
     *         is then used up: a later call returns Tok::End, so a
     *         lexer's first error is the only one it ever raises.
     */
    Token next();

  private:
    [[noreturn]] void fail(std::string msg, int line);

    std::string_view src_;
    size_t i_ = 0;
    int line_ = 1;
};

/**
 * Tokenize Kernel-C source. The tokens' text views @p source.
 *
 * @throws ParseError on malformed input (unterminated comment/string,
 *         stray characters, malformed or out-of-range numbers).
 */
std::vector<Token> tokenize(std::string_view source);

} // namespace rid::frontend

#endif // RID_FRONTEND_LEXER_H
