/**
 * @file
 * Supervision of resumed analysis: retry/backoff/quarantine.
 *
 * Functions whose last recorded run ended in `timeout`, `degraded` or
 * `error` are not blindly replayed and not blindly re-run either: each
 * resume climbs a budget-backoff ladder — the per-function deadline and
 * solver fuel are halved per prior failed attempt — until 3 failed
 * attempts, after which the function is quarantined: it gets the
 * conservative default summary and a Degraded diagnostic carrying a
 * provenance note, without ever entering symexec again. One
 * pathological function can therefore never wedge repeated runs
 * (the "demote, don't delete" discipline).
 *
 * Pure decision logic; the store consults it inside
 * AnalysisStore::lookup() and the analyzer just executes the verdict.
 */

#ifndef RID_STORE_SUPERVISOR_H
#define RID_STORE_SUPERVISOR_H

#include <cstdint>
#include <string>

#include "analysis/analyzer.h"

namespace rid::store {

/** The last recorded outcome of a function, as read from the store. */
struct PriorOutcome
{
    analysis::FnStatus status = analysis::FnStatus::Ok;
    /** Consecutive failed attempts recorded for the key. */
    uint32_t attempts = 0;
    std::string reason;
};

struct SupervisorDecision
{
    enum class Kind : uint8_t {
        /** Clean prior outcome (ok/truncated): eligible for replay. */
        LoadEligible,
        /** Failed before: re-run under the laddered budget below. */
        Retry,
        /** Ladder exhausted: default summary + Degraded diagnostic. */
        Quarantine,
    };
    Kind kind = Kind::LoadEligible;
    double retry_deadline_seconds = 0;
    uint64_t retry_fuel = 0;
    /** Quarantine: the diagnostic's provenance note. */
    std::string note;
};

/**
 * Decide how a resumed run treats a function with prior outcome
 * @p prior, given the run's per-function budget (@p base_deadline_seconds
 * / @p base_fuel). Halves both per prior failed attempt. A run that
 * configures no budget (0 = unlimited) still bounds a retry: the ladder
 * then starts from 5 s and 50,000 units of solver fuel, so a previously
 * failed function never runs unbounded again.
 */
SupervisorDecision superviseResume(const PriorOutcome &prior,
                                   double base_deadline_seconds,
                                   uint64_t base_fuel);

} // namespace rid::store

#endif // RID_STORE_SUPERVISOR_H
