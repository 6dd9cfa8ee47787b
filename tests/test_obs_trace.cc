/**
 * @file
 * Tests for the span tracer (obs/trace.h) and its wiring through the
 * analyzer: per-thread span nesting, Chrome-trace/JSONL schema
 * validity, deterministic export ordering under threads {1,4}, the
 * span-count == functions-analyzed invariant, and the guarantee that a
 * disabled tracer records nothing and costs (nearly) nothing.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/rid.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "obs/json_reader.h"
#include "obs/trace.h"

namespace rid {
namespace {

const char *kFigure9Source = R"(
int usb_autopm_get_interface(struct usb_interface *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
int idmouse_open(struct usb_interface *interface) {
    int result;
    result = usb_autopm_get_interface(interface);
    if (result)
        goto error;
    result = idmouse_create_image(interface);
    if (result)
        goto error;
    usb_autopm_put_interface(interface);
error:
    return result;
}
int idmouse_create_image(struct usb_interface *i);
void usb_autopm_put_interface(struct usb_interface *i);
)";

/** Run RID over Figure 9 (+ optional corpus) with a fresh tracer. */
std::pair<std::shared_ptr<obs::Tracer>, RunResult>
tracedRun(int threads, const kernel::Corpus *corpus = nullptr)
{
    auto tracer = std::make_shared<obs::Tracer>();
    analysis::AnalyzerOptions opts;
    opts.threads = threads;
    opts.tracer = tracer;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(kFigure9Source);
    if (corpus)
        for (const auto &file : corpus->files)
            tool.addSource(file.text);
    RunResult result = tool.run();
    return {tracer, std::move(result)};
}

/** Stack-discipline check: every event's enclosing span (same tid,
 *  depth-1, greatest smaller seq) must fully contain its interval. */
void
checkNesting(const std::vector<obs::TraceEvent> &events)
{
    for (const auto &e : events) {
        if (e.depth == 0)
            continue;
        const obs::TraceEvent *parent = nullptr;
        for (const auto &p : events) {
            if (p.seq < e.seq && p.depth == e.depth - 1 &&
                (!parent || p.seq > parent->seq))
                parent = &p;
        }
        ASSERT_NE(parent, nullptr)
            << "no enclosing span for " << e.name << " seq " << e.seq;
        EXPECT_LE(parent->start_ns, e.start_ns)
            << parent->name << " vs " << e.name;
        EXPECT_GE(parent->start_ns + parent->dur_ns,
                  e.start_ns + e.dur_ns)
            << parent->name << " does not contain " << e.name;
    }
}

TEST(Tracer, DisabledAmbientTracerRecordsNothing)
{
    ASSERT_EQ(obs::currentTracer(), nullptr);
    {
        obs::Span span("test", "noop");
        span.arg("k", "v");
    }
    // A fresh tracer sees no events from spans opened while disabled.
    obs::Tracer tracer;
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.chromeTraceJson().find("noop"), std::string::npos);
}

TEST(Tracer, DisabledSpanOverheadIsNegligible)
{
    // One million no-op spans must be far from dominating a test run;
    // the generous bound keeps the assertion robust on loaded CI.
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 1000000; i++) {
        obs::Span span("test", "noop");
    }
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    EXPECT_LT(seconds, 1.0);
}

TEST(Tracer, AnalyzerWithoutTraceConfigHasNoTracer)
{
    summary::SummaryDb db;
    ir::Module mod;
    analysis::Analyzer analyzer(mod, db);
    EXPECT_EQ(analyzer.tracer(), nullptr);
}

TEST(Tracer, SpansNestPerThread)
{
    obs::Tracer tracer;
    auto work = [&tracer]() {
        obs::ScopedTracer scoped(&tracer);
        obs::Span outer("test", "outer");
        for (int i = 0; i < 2; i++) {
            obs::Span mid("test", "mid");
            mid.arg("i", std::to_string(i));
            obs::Span inner("test", "inner");
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++)
        threads.emplace_back(work);
    for (auto &t : threads)
        t.join();

    ASSERT_EQ(tracer.threadCount(), 4u);
    ASSERT_EQ(tracer.eventCount(), 4u * 5u);
    for (uint32_t tid = 0; tid < 4; tid++) {
        auto events = tracer.threadEvents(tid);
        ASSERT_EQ(events.size(), 5u) << "tid " << tid;
        checkNesting(events);
        // outer has depth 0, mid 1, inner 2.
        for (const auto &e : events) {
            if (std::string(e.name) == "outer") {
                EXPECT_EQ(e.depth, 0u);
            }
            if (std::string(e.name) == "mid") {
                EXPECT_EQ(e.depth, 1u);
            }
            if (std::string(e.name) == "inner") {
                EXPECT_EQ(e.depth, 2u);
            }
        }
    }
}

TEST(Tracer, AnalyzerSpansNestOnEveryThread)
{
    auto corpus =
        kernel::generateCorpus(kernel::CorpusMix::paperCalibrated(0.001));
    auto [tracer, result] = tracedRun(4, &corpus);
    ASSERT_GT(tracer->eventCount(), 0u);
    for (uint32_t tid = 0; tid < tracer->threadCount(); tid++)
        checkNesting(tracer->threadEvents(tid));
}

TEST(Tracer, ChromeTraceJsonIsSchemaValid)
{
    auto [tracer, result] = tracedRun(1);
    std::string json = tracer->chromeTraceJson();

    obs::JsonValue doc;
    ASSERT_NO_THROW(doc = obs::parseJson(json)) << json;
    ASSERT_TRUE(doc.isObject());
    const auto *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->array.empty());
    for (const auto &e : events->array) {
        ASSERT_TRUE(e.isObject());
        const auto *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        EXPECT_EQ(ph->string, "X");
        for (const char *key : {"pid", "tid", "ts", "dur"}) {
            const auto *v = e.find(key);
            ASSERT_NE(v, nullptr) << key;
            EXPECT_EQ(v->kind, obs::JsonValue::Kind::Number) << key;
            EXPECT_GE(v->number, 0.0) << key;
        }
        for (const char *key : {"cat", "name"}) {
            const auto *v = e.find(key);
            ASSERT_NE(v, nullptr) << key;
            EXPECT_EQ(v->kind, obs::JsonValue::Kind::String) << key;
        }
        ASSERT_NE(e.find("args"), nullptr);
        EXPECT_TRUE(e.find("args")->isObject());
    }
}

TEST(Tracer, SpanCountMatchesAnalyzedFunctions)
{
    auto corpus =
        kernel::generateCorpus(kernel::CorpusMix::paperCalibrated(0.001));
    auto [tracer, result] = tracedRun(1, &corpus);
    size_t fn_spans = 0;
    for (const auto &e : tracer->sortedEvents())
        if (std::string(e.name) == "analyze-function")
            fn_spans++;
    EXPECT_EQ(fn_spans, result.stats.functions_analyzed);
    EXPECT_GT(fn_spans, 0u);
}

TEST(Tracer, AnalyzerBuildsOneCallGraphPerRun)
{
    // The classifier and the bottom-up traversal share one call graph,
    // built under its own pipeline span before classification starts.
    auto corpus =
        kernel::generateCorpus(kernel::CorpusMix::paperCalibrated(0.001));
    for (int threads : {1, 4}) {
        auto [tracer, result] = tracedRun(threads, &corpus);
        std::vector<obs::TraceEvent> callgraph, classify;
        for (const auto &e : tracer->sortedEvents()) {
            if (std::string(e.name) == "callgraph")
                callgraph.push_back(e);
            else if (std::string(e.name) == "classify")
                classify.push_back(e);
        }
        ASSERT_EQ(callgraph.size(), 1u) << "threads=" << threads;
        ASSERT_EQ(classify.size(), 1u) << "threads=" << threads;
        EXPECT_EQ(std::string(callgraph[0].cat), "pipeline");
        EXPECT_EQ(callgraph[0].tid, classify[0].tid);
        EXPECT_LT(callgraph[0].seq, classify[0].seq);
    }
}

TEST(Tracer, TriageLowersOnlyTheReportingUnit)
{
    // Three units; only the middle one (absorb ordinal 1) reports.
    auto tracer = std::make_shared<obs::Tracer>();
    analysis::AnalyzerOptions opts;
    opts.tracer = tracer;
    opts.triage = true;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource("int quiet_a(int x) {\n    return x;\n}\n");
    tool.addSource(kFigure9Source);
    tool.addSource("int quiet_b(int x) {\n    return 0;\n}\n");
    RunResult result = tool.run();
    ASSERT_FALSE(result.reports.empty());
    ASSERT_TRUE(result.triage.ran);

    std::vector<obs::TraceEvent> run, lower, exec;
    for (const auto &e : tracer->sortedEvents()) {
        if (std::string(e.cat) != "triage")
            continue;
        if (std::string(e.name) == "run")
            run.push_back(e);
        else if (std::string(e.name) == "hp-lower")
            lower.push_back(e);
        else if (std::string(e.name) == "hp-exec")
            exec.push_back(e);
    }
    ASSERT_EQ(run.size(), 1u);
    // One hp-lower per re-executed function, naming it; every one of
    // them re-reads the one reporting unit.
    ASSERT_FALSE(lower.empty());
    ASSERT_EQ(lower.size(), exec.size());
    for (size_t i = 0; i < lower.size(); i++) {
        EXPECT_EQ(lower[i].renderedArgs(), exec[i].renderedArgs());
        EXPECT_EQ(lower[i].renderedArgs().rfind("function=", 0), 0u);
    }
    EXPECT_EQ(result.triage.hp_units_lowered, 1u);
    EXPECT_EQ(exec.size(), result.triage.hp_functions_executed);
    // The triage spans nest under triage/run on the calling thread.
    EXPECT_EQ(lower[0].tid, run[0].tid);
    EXPECT_GT(lower[0].depth, run[0].depth);
    checkNesting(tracer->threadEvents(run[0].tid));
}

TEST(Tracer, CheckpointSpansOnlyWhereAStoreCheckpointSyncs)
{
    auto corpus =
        kernel::generateCorpus(kernel::CorpusMix::paperCalibrated(0.001));
    std::string dir = testing::TempDir() + "rid_trace_checkpoints";
    std::filesystem::remove_all(dir);
    auto storeRun = [&](bool resume) {
        auto tracer = std::make_shared<obs::Tracer>();
        analysis::AnalyzerOptions opts;
        opts.tracer = tracer;
        opts.store_path = dir;
        opts.resume = resume;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        for (const auto &file : corpus.files)
            tool.addSource(file.text);
        RunResult result = tool.run();
        size_t checkpoints = 0;
        for (const auto &e : tracer->sortedEvents())
            if (std::string(e.cat) == "store" &&
                std::string(e.name) == "checkpoint")
                checkpoints++;
        return std::make_pair(checkpoints, result);
    };

    // The cold run records every tracked function, so checkpoints sync.
    auto [cold_checkpoints, cold] = storeRun(false);
    EXPECT_GT(cold.stats.store.bytes_appended, 0u);
    EXPECT_GE(cold_checkpoints, 1u);

    // A warm resume with no edits records nothing: no checkpoint has
    // anything to commit, so none syncs or opens a span.
    auto [warm_checkpoints, warm] = storeRun(true);
    EXPECT_EQ(warm.stats.store.misses, 0u);
    EXPECT_EQ(warm.stats.store.bytes_appended, 0u);
    EXPECT_EQ(warm_checkpoints, 0u);
}

/** Project an export to its deterministic identity (drop timings). */
std::vector<std::string>
projectedSequence(const obs::Tracer &tracer)
{
    std::vector<std::string> out;
    for (const auto &e : tracer.sortedEvents())
        out.push_back(std::string(e.cat) + "|" + e.name + "|" +
                      e.renderedArgs());
    return out;
}

TEST(Tracer, ExportOrderIsDeterministicAcrossThreadCounts)
{
    auto corpus =
        kernel::generateCorpus(kernel::CorpusMix::paperCalibrated(0.001));
    auto [tracer1, result1] = tracedRun(1, &corpus);
    auto [tracer4a, result4a] = tracedRun(4, &corpus);
    auto [tracer4b, result4b] = tracedRun(4, &corpus);

    auto seq1 = projectedSequence(*tracer1);
    auto seq4a = projectedSequence(*tracer4a);
    auto seq4b = projectedSequence(*tracer4b);
    ASSERT_FALSE(seq1.empty());
    EXPECT_EQ(seq1, seq4a);
    EXPECT_EQ(seq4a, seq4b);
}

TEST(Tracer, TracePathWritesLoadableFile)
{
    std::string path = testing::TempDir() + "/rid_trace_test.json";
    analysis::AnalyzerOptions opts;
    opts.trace_path = path;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(kFigure9Source);
    RunResult result = tool.run();

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buf;
    buf << in.rdbuf();
    obs::JsonValue doc;
    ASSERT_NO_THROW(doc = obs::parseJson(buf.str()));
    const auto *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    size_t fn_spans = 0;
    for (const auto &e : events->array) {
        const auto *name = e.find("name");
        if (name && name->string == "analyze-function")
            fn_spans++;
    }
    EXPECT_EQ(fn_spans, result.stats.functions_analyzed);
}

TEST(Tracer, SolverQuerySpansAreOptIn)
{
    auto [quiet_tracer, quiet_result] = tracedRun(1);
    for (const auto &e : quiet_tracer->sortedEvents())
        EXPECT_NE(std::string(e.name), "solver-query");

    auto tracer = std::make_shared<obs::Tracer>();
    analysis::AnalyzerOptions opts;
    opts.tracer = tracer;
    opts.trace_solver_queries = true;
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(kFigure9Source);
    tool.run();
    size_t solver_spans = 0;
    for (const auto &e : tracer->sortedEvents())
        if (std::string(e.name) == "solver-query")
            solver_spans++;
    EXPECT_GT(solver_spans, 0u);
}

} // anonymous namespace
} // namespace rid
