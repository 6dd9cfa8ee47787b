#include "obs/budget.h"

namespace rid::obs {

const char *
budgetStopName(BudgetStop s)
{
    switch (s) {
      case BudgetStop::None: return "none";
      case BudgetStop::Deadline: return "deadline";
      case BudgetStop::Fuel: return "fuel";
      case BudgetStop::Parent: return "parent";
    }
    return "?";
}

Budget::Budget(const Budget *parent, double deadline_seconds, uint64_t fuel)
    : parent_(parent),
      start_(std::chrono::steady_clock::now()),
      deadline_seconds_(deadline_seconds),
      fuel_limit_(fuel),
      limited_chain_(deadline_seconds > 0 || fuel > 0 ||
                     (parent && !parent->unlimited()))
{}

bool
Budget::latch(BudgetStop cause) const
{
    uint8_t expected = 0;
    stop_.compare_exchange_strong(expected,
                                  static_cast<uint8_t>(cause),
                                  std::memory_order_acq_rel);
    return true;  // expired either way; the first cause wins the latch
}

double
Budget::elapsedSeconds() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
}

bool
Budget::expiredNow() const
{
    if (!limited_chain_)
        return false;
    if (stop_.load(std::memory_order_acquire) != 0)
        return true;
    if (parent_ && parent_->expiredNow())
        return latch(BudgetStop::Parent);
    if (deadline_seconds_ > 0 && elapsedSeconds() > deadline_seconds_)
        return latch(BudgetStop::Deadline);
    return false;
}

bool
Budget::expired() const
{
    if (!limited_chain_)
        return false;
    if (stop_.load(std::memory_order_acquire) != 0)
        return true;
    // Sample the clock on the first call and every kStride-th after it,
    // so tight loops pay one relaxed increment per check.
    if (checks_.fetch_add(1, std::memory_order_relaxed) % kStride != 0)
        return false;
    return expiredNow();
}

bool
Budget::consumeFuel(uint64_t n) const
{
    if (fuel_limit_ > 0) {
        uint64_t used =
            fuel_used_.fetch_add(n, std::memory_order_relaxed) + n;
        if (used > fuel_limit_) {
            latch(BudgetStop::Fuel);
            return false;
        }
    }
    if (parent_ && !parent_->consumeFuel(n)) {
        latch(BudgetStop::Parent);
        return false;
    }
    return true;
}

} // namespace rid::obs
