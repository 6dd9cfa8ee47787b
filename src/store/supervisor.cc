#include "store/supervisor.h"

namespace rid::store {

namespace {

/** Failed attempts before quarantine. */
constexpr uint32_t kMaxAttempts = 3;
/** Retry budgets when the run configures none. */
constexpr double kFallbackDeadlineSeconds = 5.0;
constexpr uint64_t kFallbackFuel = 50000;

bool
isFailure(analysis::FnStatus s)
{
    return s == analysis::FnStatus::Timeout ||
           s == analysis::FnStatus::Degraded ||
           s == analysis::FnStatus::Error;
}

} // anonymous namespace

SupervisorDecision
superviseResume(const PriorOutcome &prior, double base_deadline_seconds,
                uint64_t base_fuel)
{
    SupervisorDecision out;
    if (!isFailure(prior.status))
        return out;

    if (prior.attempts >= kMaxAttempts) {
        out.kind = SupervisorDecision::Kind::Quarantine;
        out.note = "quarantined after " + std::to_string(prior.attempts) +
                   " failed attempt(s) (last: " +
                   analysis::fnStatusName(prior.status);
        if (!prior.reason.empty())
            out.note += ", " + prior.reason;
        out.note += ")";
        return out;
    }

    // Backoff ladder: halve the budget per prior failed attempt, starting
    // from the run's budget or — when the run is unbudgeted — the
    // fallbacks, so a hung function is bounded from the first retry.
    out.kind = SupervisorDecision::Kind::Retry;
    double deadline = base_deadline_seconds > 0 ? base_deadline_seconds
                                                : kFallbackDeadlineSeconds;
    uint64_t fuel = base_fuel > 0 ? base_fuel : kFallbackFuel;
    uint32_t shift = prior.attempts > 62 ? 62 : prior.attempts;
    out.retry_deadline_seconds =
        deadline / static_cast<double>(uint64_t{1} << shift);
    out.retry_fuel = fuel >> shift;
    if (out.retry_fuel == 0)
        out.retry_fuel = 1;
    return out;
}

} // namespace rid::store
