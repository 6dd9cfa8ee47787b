/**
 * @file
 * End-to-end tests of the public Rid API on the paper's scenarios.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/rid.h"
#include "frontend/lexer.h"
#include "kernel/dpm_specs.h"
#include "summary/spec.h"

namespace rid {
namespace {

const char *kExampleSpecs = R"(
summary inc_pmcount(d) -> void {
  entry { cons: [d] != null; change: [d].pm += 1; return: none; }
  entry { cons: [d] == null; return: none; }
}
summary reg_read(d, reg) -> int {
  entry { cons: [d] != null && [0] >= 0; return: [0]; }
  entry { cons: [0] == -1; return: -1; }
}
)";

TEST(E2E, Figure1RunningExampleDetected)
{
    Rid tool;
    tool.loadSpecText(kExampleSpecs);
    tool.addSource(R"(
int foo(struct device *dev) {
    assert(dev != NULL);
    int v = reg_read(dev, 0x54);
    if (v <= 0)
        goto exit;
    inc_pmcount(dev);
exit:
    return 0;
}
)");
    RunResult result = tool.run();
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].function, "foo");
    EXPECT_EQ(result.reports[0].refcount, "[dev].pm");
}

TEST(E2E, Figure1FixedVersionClean)
{
    Rid tool;
    tool.loadSpecText(kExampleSpecs);
    tool.addSource(R"(
int foo(struct device *dev) {
    assert(dev != NULL);
    int v = reg_read(dev, 0x54);
    if (v <= 0)
        return -1;   /* distinguishable from the increment path */
    inc_pmcount(dev);
    return 0;
}
)");
    EXPECT_TRUE(tool.run().reports.empty());
}

TEST(E2E, Figure8Detected)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(R"(
int radeon_crtc_set_config(struct drm_mode_set *set) {
    struct drm_device *dev;
    int ret;
    dev = set->crtc->dev;
    ret = pm_runtime_get_sync(dev);
    if (ret < 0)
        return ret;
    ret = drm_crtc_helper_set_config(set);
    pm_runtime_put_autosuspend(dev);
    return ret;
}
int drm_crtc_helper_set_config(struct drm_mode_set *s);
)");
    RunResult result = tool.run();
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].refcount, "[set].crtc.dev.pm");
}

TEST(E2E, Figure8FixedVersionClean)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(R"(
int radeon_crtc_set_config(struct drm_mode_set *set) {
    struct drm_device *dev;
    int ret;
    dev = set->crtc->dev;
    ret = pm_runtime_get_sync(dev);
    if (ret < 0) {
        pm_runtime_put_autosuspend(dev);
        return ret;
    }
    ret = drm_crtc_helper_set_config(set);
    pm_runtime_put_autosuspend(dev);
    return ret;
}
int drm_crtc_helper_set_config(struct drm_mode_set *s);
)");
    EXPECT_TRUE(tool.run().reports.empty());
}

TEST(E2E, Figure9WrapperSummarizedPrecisely)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(R"(
int usb_autopm_get_interface(struct usb_interface *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
)");
    RunResult result = tool.run();
    EXPECT_TRUE(result.reports.empty());  // the wrapper itself is fine
    const auto *s = tool.summaries().find("usb_autopm_get_interface");
    ASSERT_NE(s, nullptr);
    // Precise two-entry summary: error path with no change, success
    // path with the increment.
    ASSERT_EQ(s->entries.size(), 2u);
    bool has_clean_error = false, has_counted_success = false;
    for (const auto &e : s->entries) {
        if (e.changes.empty())
            has_clean_error = true;
        else if (e.changes.begin()->second == 1)
            has_counted_success = true;
    }
    EXPECT_TRUE(has_clean_error);
    EXPECT_TRUE(has_counted_success);
}

TEST(E2E, Figure9CallerBugDetectedThroughWrapper)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(R"(
int usb_autopm_get_interface(struct usb_interface *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
void usb_autopm_put_interface(struct usb_interface *intf) {
    pm_runtime_put_sync(&intf->dev);
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
)");
    RunResult result = tool.run();
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].function, "idmouse_open");
}

TEST(E2E, Figure10MissedByDesign)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(R"(
int arizona_irq_thread(int irq, struct arizona *arizona) {
    int ret;
    ret = pm_runtime_get_sync(arizona->dev);
    if (ret < 0) {
        dev_err(arizona->dev);
        return 0;
    }
    pm_runtime_put(arizona->dev);
    return 1;
}
void dev_err(struct device *d);
)");
    EXPECT_TRUE(tool.run().reports.empty());
}

TEST(E2E, SeparateCompilationViaExportImport)
{
    std::string exported;
    {
        Rid lib;
        lib.loadSpecText(kernel::dpmSpecText());
        lib.addSource(R"(
int my_get(struct device *dev) {
    int r = pm_runtime_get_sync(dev);
    if (r < 0) {
        pm_runtime_put(dev);
        return r;
    }
    return 0;
}
)");
        lib.run();
        exported = lib.exportSummaries();
    }
    EXPECT_NE(exported.find("summary my_get"), std::string::npos);

    Rid app;
    app.loadSpecText(kernel::dpmSpecText());
    app.importSummaries(exported);
    // The buggy caller: forgets the put when work() fails.
    app.addSource(R"(
int user(struct device *dev) {
    int r = my_get(dev);
    if (r)
        return r;
    r = work(dev);
    if (r)
        return r;
    pm_runtime_put(dev);
    return 0;
}
int work(struct device *dev);
)");
    RunResult result = app.run();
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].function, "user");
}

TEST(E2E, NoClassifyAnalyzesEverything)
{
    analysis::AnalyzerOptions opts;
    opts.classify = false;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource("int unrelated(int a) { if (a) return 1; "
                   "return 0; }");
    RunResult result = tool.run();
    EXPECT_EQ(result.stats.functions_analyzed, 1u);
}

TEST(E2E, ClassifySkipsUnrelated)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource("int unrelated(int a) { if (a) return 1; "
                   "return 0; }");
    RunResult result = tool.run();
    EXPECT_EQ(result.stats.functions_analyzed, 0u);
    EXPECT_EQ(result.stats.categories.other, 1u);
}

TEST(E2E, ThreadedRunMatchesSequential)
{
    const char *src = R"(
int leak_a(struct device *dev) {
    int r = pm_runtime_get_sync(dev);
    if (r < 0)
        return r;
    r = op_a(dev);
    pm_runtime_put(dev);
    return r;
}
int ok_b(struct device *dev) {
    int r = pm_runtime_get_sync(dev);
    if (r < 0) {
        pm_runtime_put(dev);
        return r;
    }
    r = op_b(dev);
    pm_runtime_put(dev);
    return r;
}
int op_a(struct device *d);
int op_b(struct device *d);
)";
    auto runWith = [&](int threads) {
        analysis::AnalyzerOptions opts;
        opts.threads = threads;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.addSource(src);
        return tool.run().reports.size();
    };
    EXPECT_EQ(runWith(1), 1u);
    EXPECT_EQ(runWith(4), 1u);
}

TEST(E2E, SpecErrorsPropagate)
{
    Rid tool;
    EXPECT_THROW(tool.loadSpecText("summary broken("),
                 summary::SpecError);
    EXPECT_THROW(tool.loadSpecFile("/nonexistent/specs.txt"),
                 std::runtime_error);
}

TEST(E2E, ParseErrorsPropagate)
{
    Rid tool;
    EXPECT_THROW(tool.addSource("int f( {"), frontend::ParseError);
}

TEST(E2E, RunResultStrSummarizes)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource("void f(struct device *d) { pm_runtime_get(d); "
                   "pm_runtime_put(d); }");
    std::string text = tool.run().str();
    EXPECT_NE(text.find("0 report(s)"), std::string::npos);
    EXPECT_NE(text.find("refcount-changing"), std::string::npos);
}

TEST(E2E, RidRunsOnce)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(R"(
int f(struct device *dev, int flags) {
    if (flags & 4)
        pm_runtime_get_noresume(dev);
    return 0;
}
)");
    EXPECT_EQ(tool.run().reports.size(), 1u);
    const std::string exported = tool.exportSummaries();
    EXPECT_THROW(tool.run(), std::logic_error);
    // The refused call left the summaries as the run wrote them.
    EXPECT_EQ(tool.exportSummaries(), exported);
}

TEST(E2E, ReportsAreDeterministicAcrossRuns)
{
    auto collect = []() {
        Rid tool;
        tool.loadSpecText(kernel::dpmSpecText());
        tool.addSource(R"(
int f(struct device *dev) {
    int r = pm_runtime_get_sync(dev);
    if (r < 0)
        return r;
    r = op(dev);
    pm_runtime_put(dev);
    return r;
}
int op(struct device *d);
)");
        std::string out;
        for (const auto &report : tool.run().reports)
            out += report.str() + "\n";
        return out;
    };
    EXPECT_EQ(collect(), collect());
}

} // anonymous namespace
} // namespace rid
