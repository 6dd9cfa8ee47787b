/**
 * @file
 * Unit tests for the Kernel-C lexer (frontend/lexer.h).
 */

#include <gtest/gtest.h>

#include "frontend/lexer.h"

namespace rid::frontend {
namespace {

std::vector<Tok>
kinds(const std::string &src)
{
    std::vector<Tok> out;
    for (const auto &tok : tokenize(src))
        out.push_back(tok.kind);
    return out;
}

TEST(Lexer, EmptyInputYieldsEnd)
{
    EXPECT_EQ(kinds(""), (std::vector<Tok>{Tok::End}));
}

TEST(Lexer, IdentifiersAndKeywords)
{
    auto toks = tokenize("int foo while_x struct");
    EXPECT_EQ(toks[0].kind, Tok::KwInt);
    EXPECT_EQ(toks[1].kind, Tok::Ident);
    EXPECT_EQ(toks[1].text, "foo");
    EXPECT_EQ(toks[2].kind, Tok::Ident);  // not the keyword "while"
    EXPECT_EQ(toks[3].kind, Tok::KwStruct);
}

TEST(Lexer, DecimalAndHexNumbers)
{
    auto toks = tokenize("42 0x54 0XFF");
    EXPECT_EQ(toks[0].number, 42);
    EXPECT_EQ(toks[1].number, 0x54);
    EXPECT_EQ(toks[2].number, 0xFF);
}

TEST(Lexer, IntegerSuffixesStripped)
{
    auto toks = tokenize("10u 10UL 10ull 0x10L");
    EXPECT_EQ(toks[0].number, 10);
    EXPECT_EQ(toks[1].number, 10);
    EXPECT_EQ(toks[2].number, 10);
    EXPECT_EQ(toks[3].number, 16);
}

/** The ParseError message @p src raises, or "" when it lexes. */
std::string
lexError(const std::string &src)
{
    try {
        tokenize(src);
    } catch (const ParseError &e) {
        return e.what();
    }
    return "";
}

TEST(Lexer, MalformedNumericLiteralsThrow)
{
    // The literal is the whole alphanumeric run; a bad digit anywhere in
    // it is an error, never a silently truncated value.
    EXPECT_EQ(lexError("x == 10abc"), "bad numeric literal '10abc'");
    EXPECT_EQ(lexError("return 0x1G"), "bad numeric literal '0x1G'");
    EXPECT_EQ(lexError("return 0x"), "bad numeric literal '0x'");
    EXPECT_EQ(lexError("0xu"), "bad numeric literal '0xu'");
    EXPECT_EQ(lexError("1e5"), "bad numeric literal '1e5'");
    EXPECT_EQ(lexError("12u3"), "bad numeric literal '12u3'");
    // '_' ends a literal (it starts the next identifier).
    EXPECT_EQ(lexError("0x_1"), "bad numeric literal '0x'");
    // Out-of-range literals keep the same message.
    EXPECT_EQ(lexError("99999999999999999999"),
              "bad numeric literal '99999999999999999999'");
    EXPECT_EQ(lexError("0x10000000000000000"),
              "bad numeric literal '0x10000000000000000'");
}

TEST(Lexer, NumericLiteralEdgeValues)
{
    auto toks = tokenize("9223372036854775807 0x7fffffffffffffff 0 00 "
                         "0755 0x0 0ULL");
    EXPECT_EQ(toks[0].number, INT64_MAX);
    EXPECT_EQ(toks[1].number, INT64_MAX);
    EXPECT_EQ(toks[2].number, 0);
    EXPECT_EQ(toks[3].number, 0);
    EXPECT_EQ(toks[4].number, 755);  // Kernel-C has no octal literals
    EXPECT_EQ(toks[5].number, 0);
    EXPECT_EQ(toks[6].number, 0);
    EXPECT_EQ(toks[6].text, "0ULL");
}

TEST(Lexer, TokenTextViewsTheSource)
{
    const std::string src = "foo 42u \"s\\\"t\" 'c'";
    auto toks = tokenize(src);
    ASSERT_EQ(toks.size(), 5u);
    EXPECT_EQ(toks[0].text, "foo");
    EXPECT_EQ(toks[1].text, "42u");
    EXPECT_EQ(toks[2].text, "s\\\"t");   // escapes kept verbatim
    EXPECT_EQ(toks[3].text, "c");
    for (size_t i = 0; i < 4; i++) {
        EXPECT_GE(toks[i].text.data(), src.data());
        EXPECT_LE(toks[i].text.data() + toks[i].text.size(),
                  src.data() + src.size());
    }
    EXPECT_TRUE(toks[4].text.empty());   // End
}

TEST(Lexer, EveryKeywordAndItsNearMisses)
{
    // The keyword switch must agree with tokName() on every spelling,
    // and a one-character change or extension is an identifier.
    for (int k = static_cast<int>(Tok::KwInt);
         k <= static_cast<int>(Tok::KwDefault); k++) {
        Tok t = static_cast<Tok>(k);
        std::string word = tokName(t);
        const std::string src =
            word + " " + word + "x " + word + "_ x" + word;
        auto toks = tokenize(src);
        EXPECT_EQ(toks[0].kind, t) << word;
        EXPECT_EQ(toks[0].text, word);
        EXPECT_EQ(toks[1].kind, Tok::Ident) << word;
        EXPECT_EQ(toks[2].kind, Tok::Ident) << word;
        EXPECT_EQ(toks[3].kind, Tok::Ident) << word;
        std::string upper = word;
        upper[0] = upper[0] == 'N' ? 'n' : static_cast<char>(upper[0] - 32);
        EXPECT_EQ(tokenize(upper)[0].kind, Tok::Ident) << upper;
    }
}

TEST(Lexer, NonAsciiBytesAreStray)
{
    EXPECT_EQ(lexError("a \xc3\xa9 b"), "stray character '\xc3'");
    EXPECT_THROW(tokenize(std::string("a \0 b", 5)), ParseError);
}

TEST(Lexer, CharConstantsBecomeNumbers)
{
    auto toks = tokenize("'a'");
    EXPECT_EQ(toks[0].kind, Tok::Number);
    EXPECT_EQ(toks[0].number, 'a');
}

TEST(Lexer, StringsWithEscapes)
{
    auto toks = tokenize(R"("hello \"world\"")");
    EXPECT_EQ(toks[0].kind, Tok::String);
}

TEST(Lexer, LineCommentsSkipped)
{
    EXPECT_EQ(kinds("a // comment\nb"),
              (std::vector<Tok>{Tok::Ident, Tok::Ident, Tok::End}));
}

TEST(Lexer, BlockCommentsSkipped)
{
    EXPECT_EQ(kinds("a /* multi\nline */ b"),
              (std::vector<Tok>{Tok::Ident, Tok::Ident, Tok::End}));
}

TEST(Lexer, PreprocessorLinesSkipped)
{
    EXPECT_EQ(kinds("#include <foo.h>\nx"),
              (std::vector<Tok>{Tok::Ident, Tok::End}));
}

TEST(Lexer, TwoCharOperators)
{
    EXPECT_EQ(kinds("== != <= >= && || -> ++ -- << >>"),
              (std::vector<Tok>{Tok::Eq, Tok::Ne, Tok::Le, Tok::Ge,
                                Tok::AndAnd, Tok::OrOr, Tok::Arrow,
                                Tok::PlusPlus, Tok::MinusMinus, Tok::Shl,
                                Tok::Shr, Tok::End}));
}

TEST(Lexer, CompoundAssignments)
{
    EXPECT_EQ(kinds("+= -= *= /= %= &= |= ^= <<= >>="),
              (std::vector<Tok>{
                  Tok::PlusAssign, Tok::MinusAssign, Tok::StarAssign,
                  Tok::SlashAssign, Tok::PercentAssign, Tok::AmpAssign,
                  Tok::PipeAssign, Tok::CaretAssign, Tok::ShlAssign,
                  Tok::ShrAssign, Tok::End}));
}

TEST(Lexer, MinusVersusArrow)
{
    EXPECT_EQ(kinds("a-b a->b a-->b"),
              (std::vector<Tok>{Tok::Ident, Tok::Minus, Tok::Ident,
                                Tok::Ident, Tok::Arrow, Tok::Ident,
                                Tok::Ident, Tok::MinusMinus, Tok::Gt,
                                Tok::Ident, Tok::End}));
}

TEST(Lexer, Ellipsis)
{
    EXPECT_EQ(kinds("( ... )"),
              (std::vector<Tok>{Tok::LParen, Tok::Ellipsis, Tok::RParen,
                                Tok::End}));
}

TEST(Lexer, LineNumbersTracked)
{
    auto toks = tokenize("a\nb\n\nc");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[1].line, 2);
    EXPECT_EQ(toks[2].line, 4);
}

TEST(Lexer, LineNumbersAcrossBlockComments)
{
    auto toks = tokenize("/* a\nb\n*/ x");
    EXPECT_EQ(toks[0].line, 3);
}

TEST(Lexer, UnterminatedCommentThrows)
{
    EXPECT_THROW(tokenize("/* never closed"), ParseError);
}

TEST(Lexer, UnterminatedStringThrows)
{
    EXPECT_THROW(tokenize("\"never closed"), ParseError);
}

TEST(Lexer, StrayCharacterThrows)
{
    EXPECT_THROW(tokenize("a $ b"), ParseError);
    try {
        tokenize("\n\n@");
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 3);
    }
}

TEST(Lexer, NullKeyword)
{
    auto toks = tokenize("NULL null");
    EXPECT_EQ(toks[0].kind, Tok::KwNull);
    EXPECT_EQ(toks[1].kind, Tok::Ident);  // lowercase is an identifier
}

} // anonymous namespace
} // namespace rid::frontend
