#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace rid::obs {

namespace {

/** Full-precision rendering so expositions round-trip exactly. */
std::string
promDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Relaxed atomic add for doubles (fetch_add on atomic<double> is
 *  C++20; spelled out as a CAS loop for toolchain portability). */
void
atomicAdd(std::atomic<double> &a, double d)
{
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + d,
                                    std::memory_order_relaxed,
                                    std::memory_order_relaxed)) {
    }
}

} // anonymous namespace

void
Gauge::add(double d)
{
    atomicAdd(v_, d);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds))
{
    std::sort(bounds_.begin(), bounds_.end());
    bounds_.erase(std::unique(bounds_.begin(), bounds_.end()),
                  bounds_.end());
    buckets_ =
        std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
    for (size_t i = 0; i <= bounds_.size(); i++)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) -
               bounds_.begin();
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, v);
    count_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<uint64_t>
Histogram::bucketCounts() const
{
    std::vector<uint64_t> out(bounds_.size() + 1);
    for (size_t i = 0; i <= bounds_.size(); i++)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

std::vector<double>
latencyBucketsSeconds()
{
    return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
}

std::vector<double>
pathCountBuckets()
{
    return {1, 2, 4, 8, 16, 32, 64, 100, 1000};
}

std::vector<double>
byteSizeBuckets()
{
    return {1024, 4096, 16384, 65536, 262144, 1048576, 4194304};
}

bool
MetricsRegistry::isGuardName(const std::string &name)
{
    return name == kOverflowCounter || name == kOverflowGauge ||
           name == kOverflowHistogram || name == kDroppedNames;
}

MetricsRegistry::Entry &
MetricsRegistry::getOrCreate(const std::string &name, Kind kind,
                             const std::string &help)
{
    auto it = metrics_.find(name);
    if (it != metrics_.end()) {
        if (it->second.kind != kind)
            throw std::logic_error("metric '" + name +
                                   "' registered with another kind");
        return it->second;
    }
    Entry e;
    e.kind = kind;
    e.help = help;
    if (isGuardName(name))
        guard_entries_++;
    return metrics_.emplace(name, std::move(e)).first->second;
}

MetricsRegistry::Entry &
MetricsRegistry::lookup(const std::string &name, Kind kind,
                        const std::string &help)
{
    auto it = metrics_.find(name);
    if (it != metrics_.end())
        return getOrCreate(name, kind, help);

    // Cardinality guard: a NEW caller-supplied name past the cap lands
    // in the shared per-kind overflow instrument instead of growing the
    // map without bound (unbounded label sets are the classic metrics
    // cardinality explosion).
    if (max_cardinality_ != 0 && !isGuardName(name) &&
        metrics_.size() - guard_entries_ >= max_cardinality_) {
        dropped_names_++;
        Entry &dropped = getOrCreate(
            kDroppedNames, Kind::Counter,
            "distinct metric names redirected to an overflow bucket");
        if (!dropped.counter)
            dropped.counter = std::make_unique<Counter>();
        dropped.counter->inc();
        switch (kind) {
          case Kind::Counter:
            return getOrCreate(kOverflowCounter, kind,
                               "updates to counters past the "
                               "cardinality cap");
          case Kind::Gauge:
            return getOrCreate(kOverflowGauge, kind,
                               "updates to gauges past the "
                               "cardinality cap");
          case Kind::Histogram:
            return getOrCreate(kOverflowHistogram, kind,
                               "observations to histograms past the "
                               "cardinality cap");
        }
    }
    return getOrCreate(name, kind, help);
}

void
MetricsRegistry::setMaxCardinality(size_t cap)
{
    std::lock_guard<std::mutex> lock(mutex_);
    max_cardinality_ = cap;
}

size_t
MetricsRegistry::maxCardinality() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return max_cardinality_;
}

size_t
MetricsRegistry::cardinality() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return metrics_.size() - guard_entries_;
}

uint64_t
MetricsRegistry::droppedNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_names_;
}

Counter &
MetricsRegistry::counter(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = lookup(name, Kind::Counter, help);
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = lookup(name, Kind::Gauge, help);
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help,
                           std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = lookup(name, Kind::Histogram, help);
    if (!e.histogram)
        e.histogram = std::make_unique<Histogram>(std::move(bounds));
    return *e.histogram;
}

std::string
MetricsRegistry::prometheusText() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    for (const auto &[name, e] : metrics_) {
        if (!e.help.empty())
            out += "# HELP " + name + " " + e.help + "\n";
        switch (e.kind) {
          case Kind::Counter:
            out += "# TYPE " + name + " counter\n";
            out += name + " " + std::to_string(e.counter->value()) + "\n";
            break;
          case Kind::Gauge:
            out += "# TYPE " + name + " gauge\n";
            out += name + " " + promDouble(e.gauge->value()) + "\n";
            break;
          case Kind::Histogram: {
            out += "# TYPE " + name + " histogram\n";
            const auto &bounds = e.histogram->bounds();
            auto counts = e.histogram->bucketCounts();
            uint64_t cum = 0;
            for (size_t i = 0; i < bounds.size(); i++) {
                cum += counts[i];
                out += name + "_bucket{le=\"" + promDouble(bounds[i]) +
                       "\"} " + std::to_string(cum) + "\n";
            }
            cum += counts[bounds.size()];
            out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cum) +
                   "\n";
            out += name + "_sum " + promDouble(e.histogram->sum()) + "\n";
            out += name + "_count " +
                   std::to_string(e.histogram->count()) + "\n";
            break;
          }
        }
    }
    return out;
}

} // namespace rid::obs
