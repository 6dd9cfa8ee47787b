/**
 * @file
 * Unit tests for the cooperative resource budgets (obs/budget.h) and the
 * deterministic fault-injection harness (obs/failpoint.h) — the two
 * primitives the robustness layer is built on.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "obs/budget.h"
#include "obs/failpoint.h"

namespace rid::obs {
namespace {

// ---------------------------------------------------------------- Budget

TEST(BudgetTest, UnlimitedBudgetNeverExpires)
{
    Budget b;
    EXPECT_TRUE(b.unlimited());
    EXPECT_FALSE(b.hasDeadline());
    EXPECT_FALSE(b.hasFuel());
    for (int i = 0; i < 1000; i++)
        EXPECT_FALSE(b.expired());
    EXPECT_FALSE(b.expiredNow());
    EXPECT_TRUE(b.consumeFuel(1000));
    EXPECT_EQ(b.stopReason(), BudgetStop::None);
}

TEST(BudgetTest, DeadlineExpiryIsStickyAndLatched)
{
    Budget b(nullptr, 0.001);
    EXPECT_FALSE(b.unlimited());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(b.expiredNow());
    EXPECT_EQ(b.stopReason(), BudgetStop::Deadline);
    // Sticky: every later check answers true without resampling.
    EXPECT_TRUE(b.expired());
    EXPECT_TRUE(b.expiredNow());
}

TEST(BudgetTest, StridedExpiredEventuallyObservesDeadline)
{
    Budget b(nullptr, 0.001);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // expired() samples the clock only every kStride calls, so within
    // kStride + 1 calls it must notice.
    bool seen = false;
    for (uint64_t i = 0; i <= Budget::kStride && !seen; i++)
        seen = b.expired();
    EXPECT_TRUE(seen);
}

TEST(BudgetTest, FuelExhaustionLatchesFuel)
{
    Budget b(nullptr, 0, 3);
    EXPECT_TRUE(b.consumeFuel());
    EXPECT_TRUE(b.consumeFuel());
    EXPECT_TRUE(b.consumeFuel());
    EXPECT_FALSE(b.consumeFuel());
    EXPECT_EQ(b.stopReason(), BudgetStop::Fuel);
    EXPECT_TRUE(b.expired());
}

TEST(BudgetTest, ChildExpiresWhenParentFuelRunsOut)
{
    Budget parent(nullptr, 0, 2);
    Budget child(&parent);  // no own limits, but the chain is limited
    EXPECT_FALSE(child.unlimited());
    EXPECT_TRUE(child.consumeFuel());
    EXPECT_TRUE(child.consumeFuel());
    EXPECT_FALSE(child.consumeFuel());
    EXPECT_EQ(child.stopReason(), BudgetStop::Parent);
    EXPECT_EQ(parent.stopReason(), BudgetStop::Fuel);
}

TEST(BudgetTest, ChildSeesParentDeadline)
{
    Budget parent(nullptr, 0.001);
    Budget child(&parent, 3600);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(child.expiredNow());
    EXPECT_EQ(child.stopReason(), BudgetStop::Parent);
}

TEST(BudgetTest, CancelLatchesAndFirstCauseWins)
{
    // Fuel first: the budget stays expired, and a deadline passing
    // later does not reach the latch at all.
    {
        Budget b(nullptr, 0.001, 1);
        EXPECT_FALSE(b.consumeFuel(2));
        EXPECT_TRUE(b.expired());
        EXPECT_EQ(b.stopReason(), BudgetStop::Fuel);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_TRUE(b.expiredNow());
        EXPECT_EQ(b.stopReason(), BudgetStop::Fuel);
    }
    // Deadline first: exhausting the fuel afterwards latches Fuel, which
    // must not overwrite the first cause.
    {
        Budget b(nullptr, 0.001, 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_TRUE(b.expiredNow());
        EXPECT_EQ(b.stopReason(), BudgetStop::Deadline);
        EXPECT_FALSE(b.consumeFuel(2));
        EXPECT_EQ(b.stopReason(), BudgetStop::Deadline);
    }
    // Parent first: the parent's fuel runs out while the child has its
    // own left; exhausting the child's own fuel later keeps Parent.
    {
        Budget parent(nullptr, 0, 1);
        Budget child(&parent, 0, 10);
        EXPECT_FALSE(child.consumeFuel(2));
        EXPECT_EQ(child.stopReason(), BudgetStop::Parent);
        EXPECT_FALSE(child.consumeFuel(10));
        EXPECT_EQ(child.stopReason(), BudgetStop::Parent);
    }
}

TEST(BudgetTest, StopReasonNames)
{
    EXPECT_STREQ(budgetStopName(BudgetStop::None), "none");
    EXPECT_STREQ(budgetStopName(BudgetStop::Deadline), "deadline");
    EXPECT_STREQ(budgetStopName(BudgetStop::Fuel), "fuel");
    EXPECT_STREQ(budgetStopName(BudgetStop::Parent), "parent");
}

// ------------------------------------------------------------ Failpoints

/** Every test leaves the process-wide registry disarmed. */
class FailpointTest : public ::testing::Test
{
  protected:
    void TearDown() override { FailpointRegistry::instance().disarm(); }
};

TEST_F(FailpointTest, DisarmedSiteIsANoOp)
{
    EXPECT_FALSE(FailpointRegistry::instance().armed());
    EXPECT_NO_THROW(failpoint("some.site"));
}

TEST_F(FailpointTest, AlwaysFiresWithSiteAndContext)
{
    FailpointRegistry::instance().configure("a.site=always");
    FailpointScope scope("my_fn");
    try {
        failpoint("a.site");
        FAIL() << "expected InjectedFault";
    } catch (const InjectedFault &e) {
        EXPECT_EQ(e.site(), "a.site");
        EXPECT_EQ(e.context(), "my_fn");
    }
    EXPECT_EQ(FailpointRegistry::instance().hitCount("a.site"), 1u);
    auto fired = FailpointRegistry::instance().fired();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].site, "a.site");
    EXPECT_EQ(fired[0].context, "my_fn");
}

TEST_F(FailpointTest, UnmatchedSiteDoesNotFire)
{
    FailpointRegistry::instance().configure("a.site=always");
    EXPECT_NO_THROW(failpoint("other.site"));
    EXPECT_EQ(FailpointRegistry::instance().hitCount("other.site"), 1u);
}

TEST_F(FailpointTest, OnceFiresExactlyOnTheNthHit)
{
    FailpointRegistry::instance().configure("s=once@2");
    EXPECT_NO_THROW(failpoint("s"));
    EXPECT_THROW(failpoint("s"), InjectedFault);
    EXPECT_NO_THROW(failpoint("s"));
    EXPECT_EQ(FailpointRegistry::instance().fired().size(), 1u);
}

TEST_F(FailpointTest, EveryFiresPeriodically)
{
    FailpointRegistry::instance().configure("s=every@3");
    int fires = 0;
    for (int i = 0; i < 9; i++) {
        try {
            failpoint("s");
        } catch (const InjectedFault &) {
            fires++;
        }
    }
    EXPECT_EQ(fires, 3);
}

TEST_F(FailpointTest, ContextRuleOnlyFiresInMatchingScope)
{
    FailpointRegistry::instance().configure("s@victim=always");
    EXPECT_NO_THROW(failpoint("s"));  // no scope
    {
        FailpointScope scope("bystander");
        EXPECT_NO_THROW(failpoint("s"));
    }
    {
        FailpointScope scope("victim");
        EXPECT_THROW(failpoint("s"), InjectedFault);
    }
}

TEST_F(FailpointTest, ScopesNest)
{
    FailpointScope outer("outer");
    EXPECT_EQ(FailpointScope::current(), "outer");
    {
        FailpointScope inner("inner");
        EXPECT_EQ(FailpointScope::current(), "inner");
    }
    EXPECT_EQ(FailpointScope::current(), "outer");
}

TEST_F(FailpointTest, SuppressScopeBypassesArmedRules)
{
    FailpointRegistry::instance().configure("s=always");
    {
        FailpointSuppressScope suppress;
        EXPECT_TRUE(FailpointSuppressScope::active());
        EXPECT_NO_THROW(failpoint("s"));
    }
    EXPECT_FALSE(FailpointSuppressScope::active());
    EXPECT_THROW(failpoint("s"), InjectedFault);
}

TEST_F(FailpointTest, ProbIsDeterministicPerSeed)
{
    auto sequence = [](uint64_t seed) {
        FailpointRegistry::instance().configure("s=prob@0.5", seed);
        std::string out;
        for (int i = 0; i < 64; i++) {
            try {
                failpoint("s");
                out += '.';
            } catch (const InjectedFault &) {
                out += 'X';
            }
        }
        return out;
    };
    std::string a1 = sequence(42), a2 = sequence(42);
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1.find('X'), std::string::npos) << a1;
    EXPECT_NE(a1.find('.'), std::string::npos) << a1;
    // A different seed gives a different (still deterministic) pattern.
    EXPECT_NE(sequence(43), a1);
}

TEST_F(FailpointTest, MalformedSpecsThrow)
{
    auto &reg = FailpointRegistry::instance();
    EXPECT_THROW(reg.configure("nomode"), std::invalid_argument);
    EXPECT_THROW(reg.configure("=always"), std::invalid_argument);
    EXPECT_THROW(reg.configure("s=bogus"), std::invalid_argument);
    EXPECT_THROW(reg.configure("s=once@0"), std::invalid_argument);
    EXPECT_THROW(reg.configure("s=every@0"), std::invalid_argument);
    EXPECT_THROW(reg.configure("s=prob@1.5"), std::invalid_argument);
}

TEST_F(FailpointTest, DisarmClearsEverything)
{
    FailpointRegistry::instance().configure("s=always");
    EXPECT_THROW(failpoint("s"), InjectedFault);
    FailpointRegistry::instance().disarm();
    EXPECT_NO_THROW(failpoint("s"));
    EXPECT_EQ(FailpointRegistry::instance().fired().size(), 0u);
    EXPECT_EQ(FailpointRegistry::instance().hitCount("s"), 0u);
}

} // anonymous namespace
} // namespace rid::obs
