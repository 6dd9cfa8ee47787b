/**
 * @file
 * Integration tests for the analyzer's configuration knobs
 * (analysis/analyzer.h): classification tiers, the category-2 branch
 * budget, path/subcase limits and default summaries for truncated
 * functions.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/rid.h"
#include "kernel/dpm_specs.h"

namespace rid {
namespace {

RunResult
runWith(const std::string &source, analysis::AnalyzerOptions opts = {})
{
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(source);
    return tool.run();
}

TEST(AnalyzerOptions, Cat2BranchBudgetControlsSelectiveAnalysis)
{
    // check() guards a refcount operation, so it is category 2. With
    // kMaxCat2Branches (3) conditional branches it is analyzed; with one
    // more it is skipped, and the caller sees an unconstrained return.
    auto helperWithBranches = [](int branches) {
        std::string source = "int check(int v) {\n";
        for (int i = 0; i < branches; i++)
            source += "    if (v < " + std::to_string(i * 10) +
                      ")\n        return 1;\n";
        source += "    return 0;\n"
                  "}\n"
                  "int driver(struct device *dev, int v) {\n"
                  "    if (check(v)) {\n"
                  "        pm_runtime_get_noresume(dev);\n"
                  "        pm_runtime_put_noidle(dev);\n"
                  "    }\n"
                  "    return 0;\n"
                  "}\n";
        return source;
    };
    RunResult analyzed =
        runWith(helperWithBranches(analysis::kMaxCat2Branches));
    RunResult skipped =
        runWith(helperWithBranches(analysis::kMaxCat2Branches + 1));
    // Balanced either way (no reports), but only the simpler helper is
    // summarized precisely instead of defaulted.
    EXPECT_TRUE(skipped.reports.empty());
    EXPECT_TRUE(analyzed.reports.empty());
    EXPECT_EQ(analyzed.stats.functions_analyzed, 2u);
    EXPECT_EQ(skipped.stats.functions_analyzed, 1u);
    EXPECT_EQ(analyzed.stats.categories.affecting, 1u);
    EXPECT_EQ(skipped.stats.categories.affecting, 1u);
    EXPECT_EQ(analyzed.stats.functions_defaulted, 0u);
    EXPECT_EQ(skipped.stats.functions_defaulted, 1u);
}

TEST(AnalyzerOptions, Cat2SummaryImprovesCallerPrecision)
{
    // An unbalanced use whose feasibility depends on the helper's
    // return values: gated() can only return 0 or 1; the driver takes
    // the refcount exactly when gated() != 0 and undoes it when
    // gated() == 1. Without analyzing the helper (budget 0) RID cannot
    // relate the two calls' outcomes... both report either way, but the
    // helper analysis itself must not introduce false reports.
    const char *source = R"(
int gated(int v) {
    if (v > 0)
        return 1;
    return 0;
}
int driver(struct device *dev, int v) {
    if (gated(v))
        pm_runtime_get_noresume(dev);
    if (gated(v))
        pm_runtime_put_noidle(dev);
    return 0;
}
)";
    RunResult result = runWith(source);
    // Deterministic helper result makes the two branches correlate:
    // feasible paths are get+put or neither. No report.
    EXPECT_TRUE(result.reports.empty());
}

TEST(AnalyzerOptions, TruncatedFunctionGetsDefaultEntry)
{
    // 2^10 paths with a 4-path cap: the summary must include the
    // default entry so callers never over-trust it.
    std::string source = "int wide(struct device *dev, int a) {\n"
                         "    int r = 0;\n";
    for (int i = 0; i < 10; i++) {
        source += "    if (a > " + std::to_string(i) + ")\n        r = " +
                  std::to_string(i) + ";\n";
    }
    source += "    pm_runtime_get_noresume(dev);\n"
              "    pm_runtime_put_noidle(dev);\n"
              "    return r;\n}\n";
    analysis::AnalyzerOptions opts;
    opts.max_paths = 4;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(source);
    RunResult result = tool.run();
    EXPECT_EQ(result.stats.functions_truncated, 1u);
    const auto *s = tool.summaries().find("wide");
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->is_truncated);
    // The default entry is unconstrained and change-free.
    bool has_default = false;
    for (const auto &e : s->entries)
        if (e.cons.isTrue() && e.changes.empty())
            has_default = true;
    EXPECT_TRUE(has_default);
}

TEST(AnalyzerOptions, DropSeedChangesSurvivingEntryNotDetection)
{
    const char *source = R"(
int f(struct device *dev) {
    int r = pm_runtime_get_sync(dev);
    if (r < 0)
        return r;
    r = op(dev);
    pm_runtime_put(dev);
    return r;
}
int op(struct device *dev);
)";
    // Whichever entry of the inconsistent pair the IPP drop keeps, the
    // pair itself is reported exactly once.
    EXPECT_EQ(runWith(source).reports.size(), 1u);
}

TEST(AnalyzerOptions, StatsAreCoherent)
{
    RunResult result = runWith(R"(
int f(struct device *dev) {
    pm_runtime_get(dev);
    pm_runtime_put(dev);
    return 0;
}
int bystander(int a) { return a; }
)");
    const auto &stats = result.stats;
    EXPECT_EQ(stats.categories.refcount_changing, 1u);
    EXPECT_EQ(stats.categories.other, 1u);
    EXPECT_EQ(stats.functions_analyzed, 1u);
    EXPECT_EQ(stats.paths_enumerated, 1u);
    EXPECT_GE(stats.entries_computed, 1u);
    EXPECT_GE(stats.analyze_seconds, 0.0);
}

TEST(AnalyzerOptions, PredefinedFunctionsNeverReanalyzed)
{
    // A body for an API with a predefined summary must be ignored: the
    // specification wins (Section 5.1).
    RunResult result = runWith(R"(
int pm_runtime_get_sync(struct device *dev) {
    return 0;   /* lying body: no increment */
}
int f(struct device *dev) {
    int r = pm_runtime_get_sync(dev);
    if (r < 0)
        return r;
    r = op(dev);
    pm_runtime_put(dev);
    return r;
}
int op(struct device *dev);
)");
    // The spec (always +1) drives the analysis, so the bug is found
    // even though the local body claims otherwise.
    EXPECT_EQ(result.reports.size(), 1u);
}

TEST(AnalyzerOptions, ThreadsBeyondTheSccCountChangeNothing)
{
    // The scheduler starts one worker per SCC at most, so a thread count
    // far above the module's few SCCs asks the OS for a handful of
    // helper threads and reports exactly what one worker does.
    const char *source = R"(
int f(struct device *dev) {
    int r = pm_runtime_get_sync(dev);
    if (r < 0)
        return r;
    r = op(dev);
    pm_runtime_put(dev);
    return r;
}
int g(struct device *dev) {
    return f(dev);
}
int op(struct device *dev);
)";
    auto reportLines = [&](int threads) {
        analysis::AnalyzerOptions opts;
        opts.threads = threads;
        std::vector<std::string> lines;
        for (const auto &r : runWith(source, opts).reports)
            lines.push_back(r.str());
        return lines;
    };
    std::vector<std::string> one = reportLines(1);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(reportLines(std::numeric_limits<int>::max()), one);
}

} // anonymous namespace
} // namespace rid
