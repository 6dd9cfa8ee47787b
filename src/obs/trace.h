/**
 * @file
 * Span tracer for the analysis pipeline.
 *
 * Every pipeline stage and per-function unit of work (classify,
 * enumerate-paths, symexec, ipp-check, optionally each solver query)
 * opens a Span; closed spans are appended to a per-thread buffer that
 * only its owner thread writes, so recording takes no lock after a
 * thread's first span. The collected events export as Chrome
 * trace-event JSON (loadable in chrome://tracing and Perfetto).
 *
 * Disabled tracing is near-zero overhead: instrumentation sites create
 * spans against the ambient thread-local tracer (currentTracer()),
 * which is null unless an enclosing ScopedTracer installed one — a
 * no-op Span is a TLS read, one branch and no allocation.
 *
 * Exports are deterministically ordered: events sort by (category,
 * name, rendered args), so two runs over the same input emit the same
 * event sequence regardless of thread count or scheduling (timestamps
 * and durations naturally differ).
 */

#ifndef RID_OBS_TRACE_H
#define RID_OBS_TRACE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rid::obs {

/** One closed span. cat/name must point at string literals. */
struct TraceEvent
{
    const char *cat = "";
    const char *name = "";
    /** Logical thread id (per-tracer registration order). */
    uint32_t tid = 0;
    /** Nesting depth at begin (0 = top-level span of its thread). */
    uint32_t depth = 0;
    /** Per-thread begin order (assigned when the span opens). */
    uint64_t seq = 0;
    /** Begin time, nanoseconds since the tracer's epoch. */
    uint64_t start_ns = 0;
    uint64_t dur_ns = 0;
    std::vector<std::pair<std::string, std::string>> args;

    /** "k=v,k=v" — the deterministic-ordering sort key component. */
    std::string renderedArgs() const;
};

class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** All events, sorted by (cat, name, args, tid, seq): the
     *  deterministic export order. */
    std::vector<TraceEvent> sortedEvents() const;

    /** Events of one thread in begin (seq) order, for nesting checks. */
    std::vector<TraceEvent> threadEvents(uint32_t tid) const;

    size_t eventCount() const;
    uint32_t threadCount() const;

    /** Chrome trace-event JSON ("X" complete events, ts/dur in µs). */
    std::string chromeTraceJson() const;

  private:
    friend class Span;

    /** Only its owning thread appends; the tracer mutex guards the
     *  buffer list itself. */
    struct ThreadBuffer
    {
        uint32_t tid = 0;
        uint64_t next_seq = 0;
        uint32_t depth = 0;
        std::vector<TraceEvent> events;
    };

    /** Register-or-return the calling thread's buffer. */
    ThreadBuffer *threadBuffer();

    uint64_t nowNs() const
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    /** Process-unique tracer id; never reused, so a stale thread-local
     *  (tracer id, buffer) pair can be detected after destruction. */
    uint64_t id_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/** The calling thread's ambient tracer (null = tracing disabled). */
Tracer *currentTracer();

/** Install @p t as the ambient tracer for the current scope/thread.
 *  Worker threads must install it themselves — the ambient tracer does
 *  not propagate into std::async tasks. Null is allowed (no-op). */
class ScopedTracer
{
  public:
    explicit ScopedTracer(Tracer *t);
    ~ScopedTracer();
    ScopedTracer(const ScopedTracer &) = delete;
    ScopedTracer &operator=(const ScopedTracer &) = delete;

  private:
    Tracer *prev_;
};

/**
 * RAII span. Opens on construction, records a TraceEvent on
 * destruction. With a null tracer every member is a no-op.
 */
class Span
{
  public:
    Span(Tracer *t, const char *cat, const char *name);
    /** Span against the ambient tracer. */
    Span(const char *cat, const char *name)
        : Span(currentTracer(), cat, name)
    {}
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach a key/value annotation (kept in call order). */
    void arg(const char *key, std::string value);

  private:
    Tracer *tracer_ = nullptr;
    Tracer::ThreadBuffer *buf_ = nullptr;
    const char *cat_ = "";
    const char *name_ = "";
    uint64_t start_ns_ = 0;
    uint64_t seq_ = 0;
    uint32_t depth_ = 0;
    std::vector<std::pair<std::string, std::string>> args_;
};

} // namespace rid::obs

#endif // RID_OBS_TRACE_H
