/**
 * @file
 * Cooperative resource budgets: wall-clock deadlines and solver fuel.
 *
 * A Budget is checked cooperatively at the pipeline's natural yield
 * points — path enumeration, per-block symbolic execution and
 * solver check() entry. Budgets form a two-level hierarchy: one root
 * budget covers the whole run and each analyzed function gets a child
 * whose expiry is the earlier of its own deadline/fuel and the parent's.
 *
 * Expiry is *sticky*: once a budget reports expired it stays expired, and
 * the first cause is latched as stopReason(). Consumers use that latch to
 * implement the degradation ladder deterministically — a function whose
 * budget fired anywhere during its analysis is given the conservative
 * default summary and its (timing-dependent) partial results are
 * discarded, so a generous budget that never fires is byte-identical to
 * no budget at all.
 *
 * Checking is cheap: expired() samples the clock only every kStride
 * calls (relaxed atomic counter), and a budget chain with no limits
 * short-circuits without touching the clock at all. All methods are
 * thread-safe; worker threads may share one Budget.
 */

#ifndef RID_OBS_BUDGET_H
#define RID_OBS_BUDGET_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace rid::obs {

/** First cause that exhausted a budget (latched). */
enum class BudgetStop : uint8_t {
    None = 0,       ///< still within limits
    Deadline,       ///< own wall-clock deadline passed
    Fuel,           ///< own solver fuel ran out
    Parent,         ///< the parent budget expired first
};

const char *budgetStopName(BudgetStop s);

class Budget
{
  public:
    /** Clock samples happen once per this many expired() calls. */
    static constexpr uint64_t kStride = 64;

    /**
     * @param parent           enclosing budget (must outlive this one);
     *                         null for the run-level root
     * @param deadline_seconds own wall-clock allowance from construction
     *                         (0 = no own deadline)
     * @param fuel             solver fuel: consumeFuel() allowance
     *                         (0 = unlimited)
     */
    explicit Budget(const Budget *parent = nullptr,
                    double deadline_seconds = 0, uint64_t fuel = 0);

    Budget(const Budget &) = delete;
    Budget &operator=(const Budget &) = delete;

    /** Cooperative check; samples the clock every kStride calls. Sticky:
     *  once true, always true. */
    bool expired() const;

    /** Like expired() but always samples the clock. */
    bool expiredNow() const;

    /** Burn @p n units of solver fuel. Returns false (and latches
     *  BudgetStop::Fuel) when the allowance is exhausted; a budget
     *  without a fuel limit always returns true. */
    bool consumeFuel(uint64_t n = 1) const;

    /** The latched first cause, None while still within limits. */
    BudgetStop stopReason() const
    {
        return static_cast<BudgetStop>(
            stop_.load(std::memory_order_acquire));
    }

    /** Wall seconds since construction. */
    double elapsedSeconds() const;

    bool hasDeadline() const { return deadline_seconds_ > 0; }
    bool hasFuel() const { return fuel_limit_ > 0; }

    /** True when neither this budget nor any ancestor carries a limit —
     *  expired() is then a constant false. */
    bool unlimited() const { return !limited_chain_; }

  private:
    bool latch(BudgetStop cause) const;

    const Budget *parent_;
    std::chrono::steady_clock::time_point start_;
    double deadline_seconds_;
    uint64_t fuel_limit_;
    bool limited_chain_;
    mutable std::atomic<uint64_t> fuel_used_{0};
    mutable std::atomic<uint64_t> checks_{0};
    mutable std::atomic<uint8_t> stop_{0};
};

} // namespace rid::obs

#endif // RID_OBS_BUDGET_H
