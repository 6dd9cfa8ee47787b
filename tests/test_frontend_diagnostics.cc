/**
 * @file
 * Frontend diagnostics golden: which error a malformed file reports.
 *
 * A Kernel-C file can hold both lexical errors (stray characters,
 * unterminated strings, bad numeric literals) and syntax errors. The
 * frontend reports the first lexical error in the file if there is one,
 * and otherwise the first syntax or lowering error, whatever their order
 * in the file. This suite pins that choice, line and message, for
 * thousands of seeded byte-level mutants of generated units, so a
 * change in how the parser pulls its tokens cannot silently change what
 * a rejected file reports.
 *
 * Each golden line is `ok <functions lowered>` or `<line>\t<what()>`.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "frontend/lower.h"
#include "frontend/parser.h"
#include "kernel/generator.h"

namespace rid::frontend {
namespace {

/** The generated units the mutants start from: the first few files of
 *  a small paper-calibrated corpus. */
const std::vector<std::string> &
seedUnits()
{
    static const std::vector<std::string> units = [] {
        kernel::Corpus corpus = kernel::generateCorpus(
            kernel::CorpusMix::paperCalibrated(0.001));
        std::vector<std::string> out;
        for (size_t i = 0; i < 4 && i < corpus.files.size(); i++)
            out.push_back(std::move(corpus.files[i].text));
        return out;
    }();
    return units;
}

/** Bytes the mutator inserts or writes: lexically hostile characters
 *  (quotes, comment and preprocessor starts, escapes, stray symbols),
 *  number and identifier pieces, and brackets. */
constexpr std::string_view kAlphabet = "@$`'\"/*#\\\n0x9zq{}();,.-> =";

/** @p src with 1-3 single-byte inserts, deletes or replacements. */
std::string
mutate(std::string src, std::mt19937_64 &rng)
{
    for (size_t edits = 1 + rng() % 3; edits > 0; edits--) {
        char c = kAlphabet[rng() % kAlphabet.size()];
        size_t op = rng() % 3;
        if (op == 0 || src.empty()) {
            src.insert(src.begin() + rng() % (src.size() + 1), c);
        } else {
            size_t at = rng() % src.size();
            if (op == 1)
                src.erase(at, 1);
            else
                src[at] = c;
        }
    }
    return src;
}

/** The golden line for one file: what the frontend makes of it. */
std::string
outcome(const std::string &src)
{
    try {
        AstUnit unit = parseUnit(src);
        return "ok " + std::to_string(lowerFunctions(unit).size());
    } catch (const ParseError &e) {
        return std::to_string(e.line()) + "\t" + e.what();
    }
}

std::vector<std::string>
mutantOutcomes()
{
    const auto &units = seedUnits();
    std::mt19937_64 rng(0xd1a6);
    std::vector<std::string> out;
    for (int m = 0; m < 2400; m++) {
        const std::string &src = units[rng() % units.size()];
        out.push_back(outcome(mutate(src, rng)));
    }
    return out;
}

TEST(FrontendDiagnostics, MutantsMatchTheGolden)
{
    ASSERT_EQ(seedUnits().size(), 4u);
    std::ifstream in(RID_TEST_GOLDEN_DIR "/frontend_diagnostics.golden");
    ASSERT_TRUE(in) << "missing golden file";
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);)
        golden.push_back(line);

    std::vector<std::string> got = mutantOutcomes();
    ASSERT_EQ(got.size(), golden.size());
    int mismatches = 0, ok = 0;
    for (size_t m = 0; m < got.size(); m++) {
        if (got[m].rfind("ok ", 0) == 0)
            ok++;
        if (got[m] != golden[m] && ++mismatches <= 10)
            ADD_FAILURE() << "mutant " << m << ": got '" << got[m]
                          << "', golden '" << golden[m] << "'";
    }
    EXPECT_EQ(mismatches, 0);
    // Both outcomes must be exercised, or the mutator has gone blind.
    EXPECT_GT(ok, 100);
    EXPECT_GT(static_cast<int>(got.size()) - ok, 1000);
}

TEST(FrontendDiagnostics, LexicalErrorBeatsAnEarlierSyntaxError)
{
    EXPECT_EQ(outcome("int f(void) { return 1 +; }\n"
                      "\n"
                      "int g(void) { return @; }\n"),
              "3\tstray character '@'");
}

TEST(FrontendDiagnostics, FirstLexicalErrorWinsWhenMetInLookahead)
{
    // The parser peeks one token past `x` for a label's ':' and meets
    // the bad literal there; the stray '@' after it is never reported.
    EXPECT_EQ(outcome("int f(void) {\n"
                      "  x 0i;\n"
                      "  return 0;\n"
                      "}\n"
                      "@\n"),
              "2\tbad numeric literal '0i'");
}

TEST(FrontendDiagnostics, SyntaxErrorWhenTheFileLexes)
{
    EXPECT_EQ(outcome("int f(void) {\n  return 1 +;\n}\n"),
              "2\texpected expression (got ';')");
}

} // anonymous namespace
} // namespace rid::frontend
