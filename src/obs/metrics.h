/**
 * @file
 * Metrics registry: named counters, gauges and fixed-bucket latency
 * histograms with Prometheus text exposition.
 *
 * Metric objects are created once through the registry (which hands out
 * stable references — instruments are never destroyed before the
 * registry) and updated lock-free with relaxed atomics, so hot paths
 * pay a few atomic adds per update. The registry map itself is
 * mutex-guarded; instrument it once, cache the reference.
 *
 * The analyzer keeps one registry per run and counts into it as it
 * goes. Numbers another component already counts (the shared caches'
 * hits and misses) are exposed through gauges bound to that component,
 * so there is no second copy to keep in step. AnalyzerStats is a view
 * assembled from these sources on each read, not a stored copy.
 */

#ifndef RID_OBS_METRICS_H
#define RID_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rid::obs {

/** Monotonically increasing integer metric. */
class Counter
{
  public:
    void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Settable floating-point metric, or a view of a number counted
 *  elsewhere (bind()). */
class Gauge
{
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    void add(double d);
    /** Read the value from @p source on every value() from now on (what
     *  Prometheus clients call a gauge function); set() and add() no
     *  longer show. Bind before the gauge is shared between threads. */
    void bind(std::function<double()> source) { source_ = std::move(source); }
    double value() const
    {
        return source_ ? source_() : v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> v_{0.0};
    std::function<double()> source_;
};

/**
 * Fixed-bucket histogram. Bucket i counts observations <= bounds[i]
 * (Prometheus "le" semantics); one implicit +Inf bucket catches the
 * rest. Bounds are sorted at construction.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    const std::vector<double> &bounds() const { return bounds_; }
    /** Per-bucket (non-cumulative) counts; size bounds().size() + 1. */
    std::vector<uint64_t> bucketCounts() const;

  private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
    std::atomic<double> sum_{0.0};
    std::atomic<uint64_t> count_{0};
};

/** Default bucket bounds for solver-query / phase latencies (seconds). */
std::vector<double> latencyBucketsSeconds();

/** Default bucket bounds for per-function path counts. */
std::vector<double> pathCountBuckets();

/** Default bucket bounds for export sizes in bytes (powers of four from
 *  1KiB to 4MiB; e.g. the provenance journal size). */
std::vector<double> byteSizeBuckets();

class MetricsRegistry
{
  public:
    /** Get-or-create. Same name with a different metric kind throws
     *  std::logic_error; help text is kept from the first call. */
    Counter &counter(const std::string &name,
                     const std::string &help = "");
    Gauge &gauge(const std::string &name, const std::string &help = "");
    /** @p bounds applies on first registration only. */
    Histogram &histogram(const std::string &name,
                         const std::string &help = "",
                         std::vector<double> bounds =
                             latencyBucketsSeconds());

    /**
     * Cardinality guard: at most @p cap distinct caller-named
     * instruments are ever created (0 = unlimited). Once the cap is
     * reached, further NEW names are redirected to one shared overflow
     * instrument per kind (kOverflowCounter and friends) and counted in
     * the kDroppedNames counter — updates are never lost, they just
     * collapse into the overflow bucket, the way Prometheus relabeling
     * drops high-cardinality series. Existing instruments are
     * unaffected; lowering the cap below the current population only
     * stops new names. Guard-owned instruments are exempt from the cap.
     */
    void setMaxCardinality(size_t cap);
    size_t maxCardinality() const;
    /** Caller-named instruments created so far (guard names excluded). */
    size_t cardinality() const;
    /** Distinct names redirected to an overflow instrument so far. */
    uint64_t droppedNames() const;

    static constexpr const char *kOverflowCounter =
        "rid_metrics_overflow_counter";
    static constexpr const char *kOverflowGauge =
        "rid_metrics_overflow_gauge";
    static constexpr const char *kOverflowHistogram =
        "rid_metrics_overflow_histogram";
    static constexpr const char *kDroppedNames =
        "rid_metrics_dropped_names_total";

    /** Prometheus text exposition format, metrics in name order. */
    std::string prometheusText() const;

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Entry
    {
        Kind kind;
        std::string help;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &lookup(const std::string &name, Kind kind,
                  const std::string &help);
    Entry &getOrCreate(const std::string &name, Kind kind,
                       const std::string &help);
    static bool isGuardName(const std::string &name);

    mutable std::mutex mutex_;
    /** Ordered map: exposition order is deterministic by name. */
    std::map<std::string, Entry> metrics_;
    /** Cap on caller-named instruments; 0 disables the guard. */
    size_t max_cardinality_ = 4096;
    /** How many entries in metrics_ are guard-owned (exempt). */
    size_t guard_entries_ = 0;
    uint64_t dropped_names_ = 0;
};

} // namespace rid::obs

#endif // RID_OBS_METRICS_H
