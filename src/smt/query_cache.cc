#include "smt/query_cache.h"

#include "obs/failpoint.h"

#include "smt/solver.h"

namespace rid::smt {

std::optional<SatResult>
QueryCache::lookup(const Formula &f, uint8_t pass)
{
    std::optional<Verdict> hit = lru_.lookup(f);
    if (!hit)
        return std::nullopt;
    if (hit->pass != pass)
        cross_pass_hits_.fetch_add(1, std::memory_order_relaxed);
    return hit->result;
}

void
QueryCache::insert(const Formula &f, SatResult result, uint8_t pass)
{
    obs::failpoint("smt.query_cache.insert");
    lru_.insert(f, Verdict{result, pass});
}

QueryCache::Stats
QueryCache::stats() const
{
    return Stats{lru_.stats(),
                 cross_pass_hits_.load(std::memory_order_relaxed)};
}

} // namespace rid::smt
