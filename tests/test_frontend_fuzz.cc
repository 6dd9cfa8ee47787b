/**
 * @file
 * Seeded, bounded mutation fuzz of the Kernel-C frontend, plus the
 * lexer's token-stream golden.
 *
 * The fuzz mutates generator output (truncation, chunk deletion and
 * duplication, deep nesting, huge literals, stray bytes) and compiles
 * every mutant. Each one must either lower or be rejected with a
 * ParseError: no other exception, no crash and no hang. The mutation
 * stream is a pure function of the seed, so a failure reproduces.
 *
 * The golden pins the (kind, line, number, text) stream of one generated
 * file byte for byte, so a lexer rewrite cannot silently change what the
 * parser sees.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/lexer.h"
#include "frontend/lower.h"
#include "kernel/generator.h"

namespace rid::frontend {
namespace {

/** The generated files the fuzz mutates (the first few of a small
 *  paper-calibrated corpus, which covers every pattern family). */
const std::vector<kernel::SourceFile> &
seedFiles()
{
    static const std::vector<kernel::SourceFile> files = [] {
        kernel::Corpus corpus = kernel::generateCorpus(
            kernel::CorpusMix::paperCalibrated(0.001));
        std::vector<kernel::SourceFile> out;
        for (auto &f : corpus.files) {
            // Keep the mutants small so 2,000 compiles stay fast under
            // the sanitizers too.
            if (f.text.size() <= 6000)
                out.push_back(std::move(f));
            if (out.size() == 12)
                break;
        }
        return out;
    }();
    return files;
}

/**
 * Split @p src into chunks: identifier/number runs, whitespace runs and
 * single other bytes. Independent of the lexer under test, so mutations
 * stay meaningful when the lexer is wrong.
 */
std::vector<std::string>
chunks(const std::string &src)
{
    auto word = [](unsigned char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_';
    };
    auto space = [](unsigned char c) {
        return c == ' ' || c == '\t' || c == '\n';
    };
    std::vector<std::string> out;
    size_t i = 0;
    while (i < src.size()) {
        size_t j = i + 1;
        unsigned char c = src[i];
        if (word(c))
            while (j < src.size() && word(src[j]))
                j++;
        else if (space(c))
            while (j < src.size() && space(src[j]))
                j++;
        out.push_back(src.substr(i, j - i));
        i = j;
    }
    return out;
}

std::string
join(const std::vector<std::string> &parts)
{
    std::string out;
    for (const auto &p : parts)
        out += p;
    return out;
}

std::string
repeat(const std::string &s, size_t n)
{
    std::string out;
    out.reserve(s.size() * n);
    for (size_t i = 0; i < n; i++)
        out += s;
    return out;
}

/** One mutant of @p src; @p rng drives every choice. */
std::string
mutate(const std::string &src, std::mt19937_64 &rng)
{
    auto pick = [&](size_t n) {
        return static_cast<size_t>(rng() % (n ? n : 1));
    };
    std::vector<std::string> parts = chunks(src);
    switch (pick(6)) {
      case 0: // truncation at a random byte offset
        return src.substr(0, pick(src.size() + 1));
      case 1: { // delete a run of 1-8 chunks
        size_t at = pick(parts.size());
        size_t n = 1 + pick(8);
        parts.erase(parts.begin() + at,
                    parts.begin() + std::min(parts.size(), at + n));
        return join(parts);
      }
      case 2: { // duplicate a run of 1-8 chunks in place
        size_t at = pick(parts.size());
        size_t n = std::min(parts.size() - at, 1 + pick(8));
        std::vector<std::string> run(parts.begin() + at,
                                     parts.begin() + at + n);
        parts.insert(parts.begin() + at, run.begin(), run.end());
        return join(parts);
      }
      case 3: { // deep nesting at a statement or expression position
        static const size_t kDepths[] = {8, 64, 300, 3000, 30000};
        size_t depth = kDepths[pick(5)];
        std::string nest;
        switch (pick(4)) {
          case 0: nest = "return " + repeat("(", depth) + "0" +
                         repeat(")", depth) + ";";
            break;
          case 1: nest = repeat("if (x) ", depth) + "x = 1;"; break;
          case 2: nest = repeat("{ ", depth) + repeat("} ", depth); break;
          default: nest = "x = " + repeat("!", depth) + "x;"; break;
        }
        // Insert right after a random '{' so the nest lands in a body
        // (or at file scope when the file has no brace left).
        size_t brace = src.find('{', pick(src.size()));
        size_t at = brace == std::string::npos ? src.size() : brace + 1;
        return src.substr(0, at) + " " + nest + " " + src.substr(at);
      }
      case 4: { // huge or malformed numeric literal in place of a chunk
        static const char *kShapes[] = {"", "0x", "0X", "1", "9"};
        std::string lit = kShapes[pick(5)];
        size_t len = pick(400);
        for (size_t i = 0; i < len; i++)
            lit += "0123456789abcdefABCDEFxuUlLg_"[pick(29)];
        size_t at = pick(parts.size());
        if (at < parts.size())
            parts[at] = lit;
        return join(parts);
      }
      default: { // 1-4 stray bytes, any value
        std::string out = src;
        for (size_t n = 1 + pick(4); n > 0; n--)
            out.insert(out.begin() + pick(out.size() + 1),
                       static_cast<char>(pick(256)));
        return out;
      }
    }
}

TEST(FrontendFuzz, MutantsLowerOrFailWithParseError)
{
    const auto &files = seedFiles();
    ASSERT_FALSE(files.empty());
    std::mt19937_64 rng(0x5eed2026);
    const int kMutants = 2000;
    int lowered = 0, rejected = 0;
    for (int m = 0; m < kMutants; m++) {
        const std::string &src = files[rng() % files.size()].text;
        std::string mutant = mutate(src, rng);
        try {
            compile(mutant);
            lowered++;
        } catch (const ParseError &) {
            rejected++;
        } catch (const std::exception &e) {
            FAIL() << "mutant " << m << " threw a non-ParseError: "
                   << e.what();
        }
    }
    EXPECT_EQ(lowered + rejected, kMutants);
    // Both outcomes must be exercised, or the mutator has gone blind.
    EXPECT_GT(lowered, kMutants / 10);
    EXPECT_GT(rejected, kMutants / 10);
}

/** One line per token: kind, line, number, then the text verbatim. */
std::string
dumpTokens(const std::string &src)
{
    std::ostringstream out;
    for (const Token &t : tokenize(src))
        out << tokName(t.kind) << '\t' << t.line << '\t' << t.number
            << '\t' << t.text << '\n';
    return out.str();
}

TEST(FrontendGolden, TokenStreamOfAGeneratedFile)
{
    // The first seed file: a generated driver unit (keywords,
    // identifiers, numbers, punctuation and operators).
    const kernel::SourceFile &file = seedFiles().front();
    std::ifstream in(RID_TEST_GOLDEN_DIR "/lexer_tokens.golden");
    ASSERT_TRUE(in) << "missing golden file";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(dumpTokens(file.text), golden.str()) << file.name;
}

} // anonymous namespace
} // namespace rid::frontend
