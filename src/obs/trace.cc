#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "obs/json_writer.h"

namespace rid::obs {

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

thread_local Tracer *tl_current_tracer = nullptr;

/** (tracer id, buffer) cache so a thread registers with a tracer once.
 *  Tracer ids are never reused, so a stale pair is never dereferenced. */
thread_local uint64_t tl_buffer_tracer_id = 0;
thread_local void *tl_buffer = nullptr;

} // anonymous namespace

std::string
TraceEvent::renderedArgs() const
{
    std::string out;
    for (const auto &[k, v] : args) {
        if (!out.empty())
            out += ",";
        out += k;
        out += "=";
        out += v;
    }
    return out;
}

Tracer::Tracer()
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now())
{}

Tracer::ThreadBuffer *
Tracer::threadBuffer()
{
    if (tl_buffer_tracer_id == id_)
        return static_cast<ThreadBuffer *>(tl_buffer);
    std::lock_guard<std::mutex> lock(mutex_);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->tid = static_cast<uint32_t>(buffers_.size());
    buffers_.push_back(std::move(buf));
    tl_buffer = buffers_.back().get();
    tl_buffer_tracer_id = id_;
    return buffers_.back().get();
}

std::vector<TraceEvent>
Tracer::sortedEvents() const
{
    std::vector<TraceEvent> all;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buf : buffers_)
            for (const auto &e : buf->events)
                all.push_back(e);
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         int c = std::strcmp(a.cat, b.cat);
                         if (c)
                             return c < 0;
                         c = std::strcmp(a.name, b.name);
                         if (c)
                             return c < 0;
                         std::string aa = a.renderedArgs();
                         std::string ba = b.renderedArgs();
                         if (aa != ba)
                             return aa < ba;
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         return a.seq < b.seq;
                     });
    return all;
}

std::vector<TraceEvent>
Tracer::threadEvents(uint32_t tid) const
{
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buf : buffers_)
            if (buf->tid == tid)
                out = buf->events;
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return a.seq < b.seq;
              });
    return out;
}

size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto &buf : buffers_)
        n += buf->events.size();
    return n;
}

uint32_t
Tracer::threadCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<uint32_t>(buffers_.size());
}

namespace {

void
writeEventArgs(JsonWriter &w, const TraceEvent &e)
{
    w.key("args").beginObject();
    for (const auto &[k, v] : e.args)
        w.key(k).value(v);
    w.endObject();
}

} // anonymous namespace

std::string
Tracer::chromeTraceJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    for (const auto &e : sortedEvents()) {
        w.beginObject();
        w.key("ph").value("X");
        w.key("pid").value(uint64_t{0});
        w.key("tid").value(uint64_t{e.tid});
        w.key("cat").value(e.cat);
        w.key("name").value(e.name);
        // Chrome-trace timestamps are microseconds; keep ns precision.
        w.key("ts").raw(jsonDoubleFixed(e.start_ns / 1000.0, 3));
        w.key("dur").raw(jsonDoubleFixed(e.dur_ns / 1000.0, 3));
        writeEventArgs(w, e);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

Tracer *
currentTracer()
{
    return tl_current_tracer;
}

ScopedTracer::ScopedTracer(Tracer *t) : prev_(tl_current_tracer)
{
    tl_current_tracer = t;
}

ScopedTracer::~ScopedTracer()
{
    tl_current_tracer = prev_;
}

Span::Span(Tracer *t, const char *cat, const char *name)
    : tracer_(t), cat_(cat), name_(name)
{
    if (!tracer_)
        return;
    buf_ = tracer_->threadBuffer();
    seq_ = buf_->next_seq++;
    depth_ = buf_->depth++;
    start_ns_ = tracer_->nowNs();
}

Span::~Span()
{
    if (!tracer_)
        return;
    TraceEvent e;
    e.cat = cat_;
    e.name = name_;
    e.tid = buf_->tid;
    e.depth = depth_;
    e.seq = seq_;
    e.start_ns = start_ns_;
    e.dur_ns = tracer_->nowNs() - start_ns_;
    e.args = std::move(args_);
    buf_->depth--;
    buf_->events.push_back(std::move(e));
}

void
Span::arg(const char *key, std::string value)
{
    if (!tracer_)
        return;
    args_.emplace_back(key, std::move(value));
}

} // namespace rid::obs
