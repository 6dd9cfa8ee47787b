/**
 * @file
 * Tests for per-function cost attribution (obs/profile.h): ranking
 * order, deterministic tie-breaks, top-N truncation, aggregate totals,
 * text/JSON rendering, and end-to-end integration through Rid::run()
 * and RunResult::statsJson().
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/rid.h"
#include "kernel/dpm_specs.h"
#include "obs/json_reader.h"
#include "obs/profile.h"

namespace rid {
namespace {

obs::FunctionCost
cost(const char *name, double symexec, double ipp, double solver,
     uint64_t paths)
{
    obs::FunctionCost c;
    c.name = name;
    c.symexec_seconds = symexec;
    c.ipp_seconds = ipp;
    c.solver_seconds = solver;
    c.paths = paths;
    return c;
}

TEST(Profile, RanksByTotalTime)
{
    std::vector<obs::FunctionCost> costs = {
        cost("cold", 0.01, 0.01, 0.0, 2),
        cost("hot", 1.0, 0.5, 0.2, 50),
        cost("warm", 0.2, 0.1, 0.1, 10),
    };
    auto profile = obs::buildProfile(costs, 10);
    ASSERT_EQ(profile.top.size(), 3u);
    EXPECT_EQ(profile.top[0].name, "hot");
    EXPECT_EQ(profile.top[1].name, "warm");
    EXPECT_EQ(profile.top[2].name, "cold");
    EXPECT_EQ(profile.functions_ranked, 3u);
}

TEST(Profile, TieBreaksAreDeterministic)
{
    // Equal total time: solver time decides; then paths; then name.
    std::vector<obs::FunctionCost> costs = {
        cost("bbb", 0.5, 0.5, 0.1, 10),
        cost("aaa", 0.5, 0.5, 0.1, 10),
        cost("solver_heavy", 0.5, 0.5, 0.9, 1),
        cost("many_paths", 0.5, 0.5, 0.1, 99),
    };
    auto profile = obs::buildProfile(costs, 10);
    ASSERT_EQ(profile.top.size(), 4u);
    EXPECT_EQ(profile.top[0].name, "solver_heavy");
    EXPECT_EQ(profile.top[1].name, "many_paths");
    EXPECT_EQ(profile.top[2].name, "aaa");
    EXPECT_EQ(profile.top[3].name, "bbb");
}

TEST(Profile, TopNTruncatesButTotalsCoverEverything)
{
    std::vector<obs::FunctionCost> costs;
    for (int i = 0; i < 20; i++)
        costs.push_back(cost(("fn" + std::to_string(i)).c_str(),
                             0.1 * (i + 1), 0.0, 0.01, 3));
    auto profile = obs::buildProfile(costs, 5);
    ASSERT_EQ(profile.top.size(), 5u);
    EXPECT_EQ(profile.top[0].name, "fn19");
    EXPECT_EQ(profile.functions_ranked, 20u);
    EXPECT_EQ(profile.paths_total, 20u * 3u);
    EXPECT_NEAR(profile.total_seconds, 0.1 * (20 * 21 / 2), 1e-9);
    EXPECT_NEAR(profile.solver_seconds, 0.01 * 20, 1e-9);
}

TEST(Profile, ZeroTopNYieldsEmptyProfile)
{
    auto profile = obs::buildProfile({cost("fn", 1.0, 0.0, 0.0, 1)}, 0);
    EXPECT_TRUE(profile.top.empty());
    EXPECT_EQ(profile.functions_ranked, 0u);
    EXPECT_EQ(profile.paths_total, 0u);
}

TEST(Profile, RenderingsAreWellFormed)
{
    auto profile = obs::buildProfile(
        {cost("alpha", 0.5, 0.25, 0.1, 7),
         cost("beta", 0.1, 0.05, 0.0, 2)},
        10);

    std::string text = profile.str();
    EXPECT_NE(text.find("alpha"), std::string::npos) << text;
    EXPECT_NE(text.find("beta"), std::string::npos) << text;

    obs::JsonValue doc;
    ASSERT_NO_THROW(doc = obs::parseJson(profile.json()))
        << profile.json();
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("functions_ranked")->number, 2.0);
    const auto *top = doc.find("top");
    ASSERT_NE(top, nullptr);
    ASSERT_TRUE(top->isArray());
    ASSERT_EQ(top->array.size(), 2u);
    EXPECT_EQ(top->array[0].find("function")->string, "alpha");
    for (const char *key : {"paths", "entries", "symexec_seconds",
                            "ipp_seconds", "solver_seconds",
                            "solver_queries", "total_seconds"})
        EXPECT_NE(top->array[0].find(key), nullptr) << key;
}

const char *kFigure9Source = R"(
int usb_autopm_get_interface(struct usb_interface *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
int idmouse_open(struct usb_interface *interface) {
    int result;
    result = usb_autopm_get_interface(interface);
    if (result)
        goto error;
    result = idmouse_create_image(interface);
    if (result)
        goto error;
    usb_autopm_put_interface(interface);
error:
    return result;
}
int idmouse_create_image(struct usb_interface *i);
void usb_autopm_put_interface(struct usb_interface *i);
)";

RunResult
figure9Run(analysis::AnalyzerOptions opts)
{
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(kFigure9Source);
    return tool.run();
}

TEST(Profile, RunResultCarriesProfile)
{
    RunResult result = figure9Run({});
    EXPECT_EQ(result.profile.functions_ranked,
              result.stats.functions_analyzed);
    ASSERT_FALSE(result.profile.top.empty());
    EXPECT_LE(result.profile.top.size(), result.profile.functions_ranked);
    EXPECT_EQ(result.profile.paths_total, result.stats.paths_enumerated);
    for (const auto &fn : result.profile.top)
        EXPECT_FALSE(fn.name.empty());
}

TEST(Profile, DisabledViaTopNZero)
{
    analysis::AnalyzerOptions opts;
    opts.profile_top_n = 0;
    RunResult result = figure9Run(opts);
    EXPECT_TRUE(result.profile.top.empty());
    EXPECT_EQ(result.profile.functions_ranked, 0u);
}

TEST(Profile, StatsJsonIncludesProfileAndStaysParseable)
{
    RunResult result = figure9Run({});
    std::string json = result.statsJson();
    obs::JsonValue doc;
    ASSERT_NO_THROW(doc = obs::parseJson(json)) << json;
    ASSERT_TRUE(doc.isObject());
    // Pre-existing schema keys must survive the rewrite onto JsonWriter.
    for (const char *key : {"reports", "functions", "paths_enumerated",
                            "entries_computed", "phases", "solver",
                            "query_cache", "profile"})
        EXPECT_NE(doc.find(key), nullptr) << key;
    const auto *profile = doc.find("profile");
    ASSERT_NE(profile, nullptr);
    ASSERT_TRUE(profile->isObject());
    EXPECT_EQ(profile->find("functions_ranked")->number,
              static_cast<double>(result.stats.functions_analyzed));
    const auto *solver = doc.find("solver");
    ASSERT_NE(solver, nullptr);
    EXPECT_NE(solver->find("solve_seconds"), nullptr);
}

} // anonymous namespace
} // namespace rid
