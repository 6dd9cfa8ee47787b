/**
 * @file
 * End-to-end tests for the lock/alloc effect domains: the bundled
 * balanced-policy specs must flag seeded unbalanced-lock and
 * leaked-allocation bugs — in hand-written examples and in the
 * generated multi-domain corpus — with zero false positives on the
 * balanced patterns.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/rid.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"

namespace rid {
namespace {

RunResult
scanWithDomains(const char *source)
{
    Rid tool;
    tool.loadSpecText(kernel::lockSpecText());
    tool.loadSpecText(kernel::allocSpecText());
    tool.addSource(source);
    return tool.run();
}

TEST(LockDomain, ErrorPathHoldingLockIsFlagged)
{
    RunResult result = scanWithDomains(R"(
int do_op(struct device *dev, int a);

int leaky(struct device *dev, int arg) {
    int ret;
    spin_lock(&dev->lock);
    ret = do_op(dev, arg);
    if (ret < 0)
        return ret;
    spin_unlock(&dev->lock);
    return 0;
}
)");
    ASSERT_EQ(result.reports.size(), 1u);
    const auto &report = result.reports[0];
    EXPECT_EQ(report.function, "leaky");
    EXPECT_EQ(report.domain, "lock");
    EXPECT_EQ(report.kind, analysis::BugKind::Unbalanced);
    EXPECT_EQ(report.delta_a, 1);
    EXPECT_NE(report.str().find("unbalanced at return"),
              std::string::npos);
}

TEST(LockDomain, BalancedPairIsSilent)
{
    RunResult result = scanWithDomains(R"(
int do_op(struct device *dev, int a);

int ok(struct device *dev, int arg) {
    int ret;
    mutex_lock(&dev->lock);
    ret = do_op(dev, arg);
    mutex_unlock(&dev->lock);
    return ret;
}
)");
    EXPECT_TRUE(result.reports.empty());
}

TEST(LockDomain, InterruptibleLockOnlyCountsWhenAcquired)
{
    // mutex_lock_interruptible only acquires when it returns 0; bailing
    // out on its failure without unlocking is correct.
    RunResult result = scanWithDomains(R"(
int do_op(struct device *dev, int a);

int ok(struct device *dev, int arg) {
    int ret;
    ret = mutex_lock_interruptible(&dev->lock);
    if (ret < 0)
        return ret;
    ret = do_op(dev, arg);
    mutex_unlock(&dev->lock);
    return ret;
}
)");
    EXPECT_TRUE(result.reports.empty());
}

TEST(AllocDomain, ErrorPathLeakingAllocationIsFlagged)
{
    RunResult result = scanWithDomains(R"(
int setup(struct device *dev, struct buf *p);

int leak(struct device *dev, int len) {
    struct buf *p;
    int ret;
    p = kmalloc(len);
    if (p == NULL)
        return -12;
    ret = setup(dev, p);
    if (ret < 0)
        return ret;
    kfree(p);
    return 0;
}
)");
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].function, "leak");
    EXPECT_EQ(result.reports[0].domain, "alloc");
    EXPECT_EQ(result.reports[0].kind, analysis::BugKind::Unbalanced);
}

TEST(AllocDomain, AllocFreePairIsSilent)
{
    RunResult result = scanWithDomains(R"(
int fill(struct device *dev, struct buf *p);

int ok(struct device *dev, int len) {
    struct buf *p;
    int ret;
    p = kzalloc(len);
    if (p == NULL)
        return -12;
    ret = fill(dev, p);
    kfree(p);
    return ret;
}
)");
    EXPECT_TRUE(result.reports.empty());
}

TEST(AllocDomain, EscapeThroughReturnIsExempt)
{
    // An allocator wrapper hands ownership to the caller: the counter
    // projects onto [0].mem, which the balanced policy exempts.
    RunResult result = scanWithDomains(R"(
void init_buf(struct buf *p);

struct buf *mk_buf(struct device *dev, int len) {
    struct buf *p;
    p = kmalloc(len);
    if (p == NULL)
        return NULL;
    init_buf(p);
    return p;
}
)");
    EXPECT_TRUE(result.reports.empty());
}

TEST(MultiDomainCorpus, SeededBugsFoundWithZeroFalsePositives)
{
    // The generated multi-domain corpus, scanned with all three specs
    // loaded: every seeded lock/alloc bug must be reported in its
    // domain with the Unbalanced kind, and no correct lock/alloc
    // pattern may produce any report.
    kernel::Corpus corpus = kernel::generateCorpus(
        kernel::CorpusMix::multiDomain(0.001, /*domain_count=*/6));

    analysis::AnalyzerOptions opts;
    opts.threads = 4;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.loadSpecText(kernel::lockSpecText());
    tool.loadSpecText(kernel::allocSpecText());
    for (const auto &file : corpus.files)
        tool.addSource(file.text);
    RunResult result = tool.run();

    std::map<std::string, const analysis::BugReport *> by_function;
    for (const auto &report : result.reports)
        by_function[report.function] = &report;

    int lock_bugs = 0, alloc_bugs = 0, balanced_patterns = 0;
    for (const auto &truth : corpus.truth) {
        if (truth.domain == "ref")
            continue;
        auto it = by_function.find(truth.name);
        if (truth.has_bug) {
            ASSERT_TRUE(truth.rid_detects);
            ASSERT_NE(it, by_function.end())
                << "seeded " << truth.domain << " bug not reported: "
                << truth.name;
            EXPECT_EQ(it->second->domain, truth.domain);
            EXPECT_EQ(it->second->kind, analysis::BugKind::Unbalanced);
            (truth.domain == "lock" ? lock_bugs : alloc_bugs)++;
        } else {
            EXPECT_EQ(it, by_function.end())
                << "false positive on balanced pattern " << truth.name
                << ": " << it->second->str();
            balanced_patterns++;
        }
    }
    EXPECT_EQ(lock_bugs, 6);
    EXPECT_EQ(alloc_bugs, 6);
    EXPECT_EQ(balanced_patterns, 18);
    EXPECT_EQ(result.stats.reports_by_domain.at("lock"), 6u);
    EXPECT_EQ(result.stats.reports_by_domain.at("alloc"), 6u);

    // The per-domain report counters surface in the stats JSON.
    std::string json = result.statsJson();
    EXPECT_NE(json.find("\"domains\""), std::string::npos);
    EXPECT_NE(json.find("\"lock\""), std::string::npos);
}

} // anonymous namespace
} // namespace rid
