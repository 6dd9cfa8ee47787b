/**
 * @file
 * Unit tests for functions built on first read (ir::Module skeletons and
 * the Lowering hook) and for lowering one function from its source span
 * (frontend::lowerSpan).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/classifier.h"
#include "core/rid.h"
#include "frontend/lower.h"
#include "frontend/parser.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "obs/failpoint.h"
#include "summary/spec.h"

namespace rid {
namespace {

using frontend::LowerOptions;

LowerOptions
withExtensions(bool on)
{
    LowerOptions opts;
    opts.model_bit_tests = on;
    opts.model_field_stores = on;
    return opts;
}

/** Every instruction line of @p fn, in block order (str() omits them). */
std::vector<int>
linesOf(const ir::Function &fn)
{
    std::vector<int> lines;
    for (size_t b = 0; b < fn.numBlocks(); b++)
        for (const auto &in : fn.block(static_cast<ir::BlockId>(b)).instrs)
            lines.push_back(in.line);
    return lines;
}

/**
 * Lower every function of @p source from its span and require the bytes,
 * fingerprint and lines of whole-unit lowering. Returns how many
 * functions were compared.
 */
size_t
expectSpansMatchUnit(const std::string &source, const LowerOptions &opts)
{
    frontend::AstUnit unit = frontend::parseUnit(source);
    auto whole = frontend::lowerFunctions(unit, opts);
    EXPECT_EQ(whole.size(), unit.functions.size());
    for (size_t i = 0; i < whole.size(); i++) {
        const frontend::AstFunction &ast = unit.functions[i];
        SCOPED_TRACE(whole[i]->name());
        auto alone = frontend::lowerSpan(
            source, {ast.begin, ast.end, ast.first_line}, opts);
        EXPECT_EQ(alone->str(), whole[i]->str());
        EXPECT_EQ(alone->fingerprint(), whole[i]->fingerprint());
        EXPECT_EQ(linesOf(*alone), linesOf(*whole[i]));
        EXPECT_EQ(alone->isDeclaration(), whole[i]->isDeclaration());
    }
    return whole.size();
}

/** A scale-0.01 generated corpus, shared by the tests below. */
const kernel::Corpus &
smallCorpus()
{
    static const kernel::Corpus corpus = kernel::generateCorpus(
        kernel::CorpusMix::paperCalibrated(0.01), 0x101);
    return corpus;
}

/** A Rid over smallCorpus() with the DPM specs loaded. */
std::unique_ptr<Rid>
loadedTool(analysis::AnalyzerOptions opts = {}, LowerOptions lower = {})
{
    auto tool = std::make_unique<Rid>(opts, lower);
    tool->loadSpecText(kernel::dpmSpecText());
    for (const auto &file : smallCorpus().files)
        EXPECT_TRUE(tool->addSourceTolerant(file.name, file.text));
    return tool;
}

// ----------------------------------------------------------------------
// Span lowering equals whole-unit lowering
// ----------------------------------------------------------------------

class SpanLowering : public ::testing::TestWithParam<bool>
{};

TEST_P(SpanLowering, EveryGeneratedFunctionMatchesItsUnit)
{
    const LowerOptions opts = withExtensions(GetParam());
    size_t compared = 0;
    for (const auto &file : smallCorpus().files)
        compared += expectSpansMatchUnit(file.text, opts);
    EXPECT_GT(compared, 2000u);
}

TEST_P(SpanLowering, CommentsDirectivesSharedLinesAndNoTrailingNewline)
{
    // Comment and `#` lines between functions, two functions and a
    // prototype on one line, a comment inside a body, and a last
    // function with no newline after its closing brace.
    const std::string source =
        "// leading comment\n"
        "#include <linux/pm_runtime.h>\n"
        "static int a(int x) { return x; } int b(void) { return a(1); }"
        " int proto(int q);\n"
        "/* a block comment\n"
        "   over two lines */\n"
        "#define FLAG 4\n"
        "\n"
        "int c(struct device *dev, int flags)\n"
        "{\n"
        "    if (flags & 4)   /* bit test */\n"
        "        pm_runtime_get_noresume(dev);\n"
        "    dev->state = flags;\n"
        "    return 0;\n"
        "}\n"
        "# 12 \"renumbered.c\"\n"
        "int last(int n) { while (n) { if (n == 3) break; n = n - 1; }"
        " return n; }";
    EXPECT_EQ(expectSpansMatchUnit(source, withExtensions(GetParam())), 5u);

    frontend::AstUnit unit = frontend::parseUnit(source);
    ASSERT_EQ(unit.functions.size(), 5u);
    auto text = [&](size_t i) {
        const auto &fn = unit.functions[i];
        return source.substr(fn.begin, fn.end - fn.begin);
    };
    EXPECT_EQ(text(0), "static int a(int x) { return x; }");
    EXPECT_EQ(text(1), "int b(void) { return a(1); }");
    EXPECT_EQ(text(2), "int proto(int q);");
    EXPECT_EQ(unit.functions[3].first_line, 8);
    EXPECT_EQ(text(3).substr(0, 6), "int c(");
    EXPECT_EQ(text(3).back(), '}');
    EXPECT_EQ(unit.functions[4].end, source.size());
    EXPECT_EQ(unit.functions[4].first_line, 16);
}

INSTANTIATE_TEST_SUITE_P(ExtensionsOffAndOn, SpanLowering,
                         ::testing::Values(false, true));

TEST(SpanLoweringErrors, SpanMustHoldExactlyOneFunction)
{
    const std::string source = "int f(void) { return 1; }\n"
                               "int g(void) { return 2; }\n";
    EXPECT_THROW(frontend::lowerSpan(source, {0, 52, 1}),
                 frontend::ParseError);
    EXPECT_THROW(frontend::lowerSpan(source, {0, 500, 1}),
                 frontend::ParseError);
    EXPECT_THROW(frontend::lowerSpan(source, {5, 4, 1}),
                 frontend::ParseError);
    EXPECT_NO_THROW(frontend::lowerSpan(source, {0, 25, 1}));
}

// ----------------------------------------------------------------------
// The module: skeletons, the hook, build-once
// ----------------------------------------------------------------------

/** A hook that rebuilds functions from eager copies and counts calls. */
class CopyLowering final : public ir::Lowering
{
  public:
    explicit CopyLowering(std::string source) : source_(std::move(source))
    {}

    std::unique_ptr<ir::Function>
    lower(const ir::Skeleton &fn) const override
    {
        calls++;
        suppressed = suppressed && obs::FailpointSuppressScope::active();
        if (fail_next.exchange(false))
            throw std::runtime_error("hook failed");
        if (wrong_name)
            return ir::Function::declaration("other", {}, false);
        return frontend::lowerSpan(source_, fn.span);
    }

    mutable std::atomic<int> calls{0};
    mutable std::atomic<bool> suppressed{true};
    mutable std::atomic<bool> fail_next{false};
    bool wrong_name = false;

  private:
    std::string source_;
};

/** Commit @p source as one unit of @p mod with its source spans. */
void
commitFromSource(ir::Module &mod, const std::string &source,
                 bool fingerprint = false,
                 std::vector<ir::Name> keep_callers_of = {})
{
    frontend::AstUnit unit = frontend::parseUnit(source);
    mod.commit(frontend::lowerFunctions(unit), frontend::spansOf(unit),
               fingerprint, keep_callers_of);
}

const std::string kUnit = "int helper(int a);\n"
                          "int f(int a) {\n"
                          "    int r = helper(a);\n"
                          "    if (r) { g(); helper(r); }\n"
                          "    return g();\n"
                          "}\n"
                          "int g(void) { return 0; }\n";

TEST(LazyModule, SkeletonsWithoutIrUntilFirstRead)
{
    auto hook = std::make_shared<CopyLowering>(kUnit);
    ir::Module mod;
    mod.setLowering(hook);
    commitFromSource(mod, kUnit, /*fingerprint=*/true);
    ASSERT_EQ(mod.size(), 3u);
    for (size_t k = 0; k < mod.size(); k++)
        EXPECT_FALSE(mod.built(k));

    const ir::Skeleton &f = mod.skeleton(mod.indexOf("f"));
    EXPECT_EQ(f.name.str(), "f");
    EXPECT_FALSE(f.declaration);
    EXPECT_TRUE(f.returns_value);
    EXPECT_EQ(f.unit, 0u);
    // Distinct callees in first-call order.
    ASSERT_EQ(f.callees().size(), 2u);
    EXPECT_EQ(f.callees()[0].str(), "helper");
    EXPECT_EQ(f.callees()[1].str(), "g");
    EXPECT_EQ(f.span.line, 2);
    EXPECT_TRUE(mod.skeleton(mod.indexOf("helper")).declaration);
    EXPECT_TRUE(mod.skeleton(mod.indexOf("g")).callees().empty());

    // Skeleton readers build nothing.
    EXPECT_EQ(hook->calls.load(), 0);
    const size_t k = mod.indexOf("f");
    const ir::Function &built = mod.function(k);
    EXPECT_TRUE(mod.built(k));
    EXPECT_EQ(hook->calls.load(), 1);
    EXPECT_EQ(mod.lowered(), 1u);
    EXPECT_EQ(&mod.function(k), &built);
    EXPECT_EQ(mod.find("f"), &built);
    EXPECT_EQ(hook->calls.load(), 1);
    EXPECT_TRUE(hook->suppressed.load());
    EXPECT_EQ(f.fingerprint, built.fingerprint());
    EXPECT_EQ(mod.fingerprint(k), built.fingerprint());
    EXPECT_EQ(built.str(), frontend::compile(kUnit).find("f")->str());
    EXPECT_FALSE(mod.built(mod.indexOf("g")));
}

TEST(LazyModule, CallersOfKeptNamesKeepTheirIr)
{
    auto hook = std::make_shared<CopyLowering>(kUnit);
    ir::Module mod;
    mod.setLowering(hook);
    commitFromSource(mod, kUnit, false, {ir::Name("helper")});
    EXPECT_TRUE(mod.built(mod.indexOf("f")));      // calls helper
    EXPECT_FALSE(mod.built(mod.indexOf("g")));
    EXPECT_FALSE(mod.built(mod.indexOf("helper")));
    EXPECT_EQ(mod.function(mod.indexOf("f")).str(),
              frontend::compile(kUnit).find("f")->str());
    EXPECT_EQ(hook->calls.load(), 0);
    EXPECT_EQ(mod.lowered(), 0u);
}

TEST(LazyModule, FingerprintOnlyWhenAsked)
{
    // Without one taken at commit, fingerprint() renders the IR, which
    // builds it.
    auto hook = std::make_shared<CopyLowering>(kUnit);
    ir::Module mod;
    mod.setLowering(hook);
    commitFromSource(mod, kUnit);
    const ir::Module eager = frontend::compile(kUnit);
    for (size_t k = 0; k < mod.size(); k++) {
        EXPECT_EQ(mod.skeleton(k).fingerprint, 0u);
        EXPECT_EQ(mod.fingerprint(k), eager.function(k).fingerprint());
        EXPECT_TRUE(mod.built(k));
    }
    EXPECT_EQ(hook->calls.load(), static_cast<int>(mod.size()));
}

TEST(LazyModule, FailedBuildKeepsNothingAndRetries)
{
    auto hook = std::make_shared<CopyLowering>(kUnit);
    ir::Module mod;
    mod.setLowering(hook);
    commitFromSource(mod, kUnit);
    const size_t k = mod.indexOf("g");
    hook->fail_next = true;
    EXPECT_THROW(mod.function(k), std::runtime_error);
    EXPECT_FALSE(mod.built(k));
    EXPECT_EQ(mod.lowered(), 0u);
    EXPECT_EQ(mod.function(k).name(), "g");
    EXPECT_EQ(mod.lowered(), 1u);
}

TEST(LazyModule, RebuildMustMatchTheSkeleton)
{
    auto hook = std::make_shared<CopyLowering>(kUnit);
    hook->wrong_name = true;
    ir::Module mod;
    mod.setLowering(hook);
    commitFromSource(mod, kUnit);
    EXPECT_THROW(mod.function(0), ir::IrError);
    EXPECT_FALSE(mod.built(0));
}

TEST(LazyModule, SpansWithoutAHookKeepIr)
{
    // Without a hook nothing could rebuild a function, so a commit with
    // spans keeps every function's IR, and the skeletons keep the spans.
    ir::Module mod;
    commitFromSource(mod, kUnit);
    ASSERT_EQ(mod.size(), 3u);
    const frontend::AstUnit unit = frontend::parseUnit(kUnit);
    for (size_t k = 0; k < mod.size(); k++) {
        EXPECT_TRUE(mod.built(k));
        EXPECT_EQ(mod.skeleton(k).span.begin, unit.functions[k].begin);
        EXPECT_EQ(mod.skeleton(k).span.end, unit.functions[k].end);
        EXPECT_EQ(mod.skeleton(k).span.line, unit.functions[k].first_line);
    }
    EXPECT_EQ(mod.lowered(), 0u);
    EXPECT_EQ(mod.str(), frontend::compile(kUnit).str());

    // Spans must match the unit one for one.
    const std::vector<ir::SourceSpan> one{{0, 1, 1}};
    EXPECT_THROW(mod.commit(frontend::lowerFunctions(unit), one),
                 std::logic_error);
    EXPECT_EQ(mod.size(), 3u);
}

TEST(LazyModule, EagerCommitsAndAbsorbKeepIr)
{
    // Eagerly lowered modules have every function built and count no
    // builds, and keep each function's span; absorbing a lazy module
    // builds its functions first and carries their spans.
    ir::Module eager = frontend::compile(kUnit);
    for (size_t k = 0; k < eager.size(); k++) {
        EXPECT_TRUE(eager.built(k));
        EXPECT_GT(eager.skeleton(k).span.end, 0u);
    }
    EXPECT_EQ(eager.lowered(), 0u);
    EXPECT_EQ(eager.skeleton(eager.indexOf("f")).callees().size(), 2u);

    ir::Module lazy;
    lazy.setLowering(std::make_shared<CopyLowering>(kUnit));
    commitFromSource(lazy, kUnit);
    ir::Module corpus;
    corpus.absorb(std::move(lazy));
    ASSERT_EQ(corpus.size(), 3u);
    for (size_t k = 0; k < corpus.size(); k++) {
        EXPECT_TRUE(corpus.built(k));
        EXPECT_EQ(corpus.skeleton(k).span.begin, eager.skeleton(k).span.begin);
        EXPECT_EQ(corpus.skeleton(k).span.end, eager.skeleton(k).span.end);
        EXPECT_EQ(corpus.skeleton(k).span.line, eager.skeleton(k).span.line);
    }
    EXPECT_EQ(corpus.str(), frontend::compile(kUnit).str());
}

TEST(LazyModule, DefinitionReplacesLazyDeclaration)
{
    const std::string second = "int helper(int a) { return a; }\n";
    auto hook1 = std::make_shared<CopyLowering>(kUnit);
    ir::Module mod;
    mod.setLowering(hook1);
    commitFromSource(mod, kUnit);
    auto hook2 = std::make_shared<CopyLowering>(second);
    mod.setLowering(hook2);
    commitFromSource(mod, second);
    const size_t k = mod.indexOf("helper");
    EXPECT_EQ(k, 0u);
    EXPECT_FALSE(mod.skeleton(k).declaration);
    EXPECT_EQ(mod.skeleton(k).unit, 1u);
    EXPECT_FALSE(mod.function(k).isDeclaration());
}

// ----------------------------------------------------------------------
// Rid: what a run builds
// ----------------------------------------------------------------------

/** Whether module function @p k calls one of @p apis directly. */
bool
callsAny(const ir::Module &mod, size_t k, const std::vector<std::string> &apis)
{
    for (ir::Name callee : mod.skeleton(k).callees())
        if (std::find(apis.begin(), apis.end(), callee.str()) != apis.end())
            return true;
    return false;
}

TEST(LazyRid, LoadKeepsOnlyDirectApiCallersAndRunBuildsOnlyCategoriesOneAndTwo)
{
    auto tool = loadedTool();
    const ir::Module &mod = tool->module();
    // Load builds nothing; it keeps the IR of the direct callers of the
    // refcount APIs, which are category 1, and of no other function.
    const auto apis = tool->summaries().namesWithChanges();
    EXPECT_EQ(mod.lowered(), 0u);
    size_t kept = 0;
    for (size_t k = 0; k < mod.size(); k++) {
        SCOPED_TRACE(mod.skeleton(k).name.str());
        ASSERT_EQ(mod.built(k), callsAny(mod, k, apis));
        kept += mod.built(k);
    }
    EXPECT_GT(kept, 0u);

    RunResult result = tool->run();
    const size_t lowered = mod.lowered();
    EXPECT_GT(lowered, 0u);
    EXPECT_EQ(result.stats.functions_lowered, lowered);
    EXPECT_LE(kept + lowered, result.stats.categories.refcount_changing +
                                  result.stats.categories.affecting);
    EXPECT_NE(result.statsJson().find("\"lowered\":" +
                                      std::to_string(lowered)),
              std::string::npos);

    // No category-3 function and no declaration was built.
    analysis::FunctionClassifier classifier(
        mod, tool->summaries().namesWithChanges());
    for (size_t k = 0; k < mod.size(); k++) {
        if (!mod.built(k))
            continue;
        SCOPED_TRACE(mod.skeleton(k).name.str());
        EXPECT_FALSE(mod.skeleton(k).declaration);
        EXPECT_NE(classifier.categoryOf(static_cast<int>(k)),
                  analysis::Category::Other);
    }

    // The count repeats exactly.
    auto again = loadedTool();
    EXPECT_EQ(again->run().stats.functions_lowered, lowered);
}

TEST(LazyRid, ReportsMatchAnEagerModule)
{
    for (bool ext : {false, true}) {
        SCOPED_TRACE(ext ? "extensions on" : "extensions off");
        auto tool = loadedTool({}, withExtensions(ext));
        RunResult lazy = tool->run();

        ir::Module eager;
        for (const auto &file : smallCorpus().files)
            eager.absorb(frontend::compile(file.text, withExtensions(ext)));
        summary::SummaryDb db;
        summary::loadSpecsInto(kernel::dpmSpecText(), db);
        analysis::Analyzer analyzer(eager, db, {});
        analyzer.run();

        ASSERT_EQ(lazy.reports.size(), analyzer.reports().size());
        for (size_t i = 0; i < lazy.reports.size(); i++) {
            EXPECT_EQ(lazy.reports[i].str(), analyzer.reports()[i].str());
            EXPECT_EQ(lazy.reports[i].fingerprint,
                      analyzer.reports()[i].fingerprint);
        }
        EXPECT_EQ(tool->exportSummaries(), db.saveComputed());
        EXPECT_EQ(tool->module().str(), eager.str());
    }
}

TEST(LazyRid, StoreRunsFingerprintAtLoad)
{
    analysis::AnalyzerOptions opts;
    opts.store_path = "unused-store-dir";   // never opened: no run()
    auto tool = loadedTool(opts);
    const ir::Module &mod = tool->module();
    for (size_t k = 0; k < mod.size(); k += 97) {
        ASSERT_NE(mod.skeleton(k).fingerprint, 0u);
        // The fingerprint taken at load builds nothing.
        const bool had_ir = mod.built(k);
        const uint64_t fp = mod.fingerprint(k);
        EXPECT_EQ(mod.built(k), had_ir);
        EXPECT_EQ(fp, mod.function(k).fingerprint());
    }
    EXPECT_EQ(loadedTool()->module().skeleton(0).fingerprint, 0u);
}

TEST(LazyRid, BuildingAddsNoInternsAndInjectsNoFaults)
{
    auto tool = loadedTool();
    const size_t names = ir::Name::internedCount();
    // Every build runs with failpoints suppressed: an armed frontend
    // failpoint does not fire for a function rebuilt from its span.
    obs::FailpointRegistry::instance().configure(
        "frontend.parse=always,ir.verify=always");
    size_t unbuilt = 0;
    for (size_t k = 0; k < tool->module().size(); k++)
        unbuilt += !tool->module().built(k);
    std::string ir_text;
    EXPECT_NO_THROW(ir_text = tool->module().str());
    obs::FailpointRegistry::instance().disarm();
    EXPECT_GT(unbuilt, 0u);
    EXPECT_EQ(tool->module().lowered(), unbuilt);
    EXPECT_EQ(ir::Name::internedCount(), names);
}

TEST(LazyRid, ConcurrentFirstReadsBuildEachFunctionOnce)
{
    // Eight threads read one shared function, a shared block of
    // functions and a block of their own, all for the first time, in
    // different orders. Each function is built once, every thread sees
    // the same IR, and its bytes are whole-unit lowering's.
    auto tool = loadedTool();
    const ir::Module &mod = tool->module();
    constexpr int kThreads = 8;
    constexpr size_t kShared = 64, kOwn = 32;
    ASSERT_GT(mod.size(), kShared + kThreads * kOwn);
    size_t unbuilt = 0;   // the rest kept their IR at load
    for (size_t k = 0; k < kShared + kThreads * kOwn; k++)
        unbuilt += !mod.built(k);
    ASSERT_GT(unbuilt, kShared);

    std::vector<std::vector<const ir::Function *>> seen(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            auto &mine = seen[t];
            for (size_t i = 0; i < kShared; i++) {
                size_t k = t % 2 ? i : kShared - 1 - i;
                mine.push_back(&mod.function(k));
            }
            for (size_t i = 0; i < kOwn; i++)
                mine.push_back(&mod.function(kShared + t * kOwn + i));
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(mod.lowered(), unbuilt);
    for (int t = 0; t < kThreads; t++) {
        for (size_t i = 0; i < kShared; i++) {
            size_t k = t % 2 ? i : kShared - 1 - i;
            EXPECT_EQ(seen[t][i], &mod.function(k));
        }
    }
    ir::Module eager;
    for (const auto &file : smallCorpus().files)
        eager.absorb(frontend::compile(file.text));
    for (size_t k = 0; k < kShared + kThreads * kOwn; k++)
        EXPECT_EQ(mod.function(k).str(), eager.function(k).str());
    EXPECT_EQ(mod.lowered(), unbuilt);
}

} // namespace
} // namespace rid
