/**
 * @file
 * Tests for the metrics registry (obs/metrics.h) and the shared JSON
 * writer (obs/json_writer.h): counter/gauge/histogram semantics,
 * concurrent updates, exact Prometheus-exposition round-trips, the
 * cardinality guard, and byte-stable JsonWriter output.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace rid {
namespace {

TEST(Counter, IncrementAndValue)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd)
{
    obs::Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(1.5);
    EXPECT_EQ(g.value(), 1.5);
    g.add(0.25);
    EXPECT_EQ(g.value(), 1.75);
    g.set(-3.0);
    EXPECT_EQ(g.value(), -3.0);
}

TEST(Histogram, LeBucketSemantics)
{
    obs::Histogram h({1.0, 2.0, 4.0});
    h.observe(0.5);  // <= 1.0
    h.observe(1.0);  // <= 1.0 (le is inclusive)
    h.observe(1.5);  // <= 2.0
    h.observe(4.0);  // <= 4.0
    h.observe(99.0); // +Inf
    auto counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 99.0);
}

TEST(Histogram, BoundsAreSortedAndDeduped)
{
    obs::Histogram h({4.0, 1.0, 2.0, 1.0});
    ASSERT_EQ(h.bounds().size(), 3u);
    EXPECT_EQ(h.bounds()[0], 1.0);
    EXPECT_EQ(h.bounds()[1], 2.0);
    EXPECT_EQ(h.bounds()[2], 4.0);
}

TEST(MetricsRegistry, GetOrCreateReturnsSameInstance)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("rid_test_total", "help");
    obs::Counter &b = reg.counter("rid_test_total");
    EXPECT_EQ(&a, &b);
    a.inc(7);
    EXPECT_EQ(b.value(), 7u);
}

TEST(MetricsRegistry, KindMismatchThrows)
{
    obs::MetricsRegistry reg;
    reg.counter("rid_test_total");
    EXPECT_THROW(reg.gauge("rid_test_total"), std::logic_error);
    EXPECT_THROW(reg.histogram("rid_test_total"), std::logic_error);
}

TEST(MetricsRegistry, ConcurrentIncrementsSumCorrectly)
{
    obs::MetricsRegistry reg;
    obs::Counter &counter = reg.counter("rid_conc_total");
    obs::Gauge &gauge = reg.gauge("rid_conc_gauge");
    obs::Histogram &hist = reg.histogram("rid_conc_hist", "", {1.0, 2.0});

    constexpr int kThreads = 8;
    constexpr int kIters = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&]() {
            for (int i = 0; i < kIters; i++) {
                counter.inc();
                gauge.add(0.5);
                hist.observe(1.0);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(counter.value(), uint64_t{kThreads} * kIters);
    // 0.5 and 1.0 are exactly representable, so the CAS-loop adds must
    // sum without rounding error.
    EXPECT_EQ(gauge.value(), 0.5 * kThreads * kIters);
    EXPECT_EQ(hist.count(), uint64_t{kThreads} * kIters);
    EXPECT_EQ(hist.sum(), 1.0 * kThreads * kIters);
    auto counts = hist.bucketCounts();
    EXPECT_EQ(counts[0], uint64_t{kThreads} * kIters);  // le=1.0
    EXPECT_EQ(counts[1], 0u);
    EXPECT_EQ(counts[2], 0u);
}

/** One parsed exposition sample: metric line name + labels + value. */
struct PromSample
{
    std::string labels;  // raw text between {} (empty if none)
    std::string value;
};

/** Parse the subset of the Prometheus text format the registry emits:
 *  # HELP / # TYPE comments plus `name[{labels}] value` samples. */
std::multimap<std::string, PromSample>
parsePrometheus(const std::string &text,
                std::map<std::string, std::string> *types = nullptr)
{
    std::multimap<std::string, PromSample> samples;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        EXPECT_FALSE(line.empty());
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream fields(line.substr(7));
            std::string name, type;
            fields >> name >> type;
            if (types)
                (*types)[name] = type;
            continue;
        }
        if (line.rfind("#", 0) == 0)
            continue;
        size_t space = line.rfind(' ');
        if (space == std::string::npos) {
            ADD_FAILURE() << "malformed sample line: " << line;
            continue;
        }
        std::string name = line.substr(0, space);
        PromSample s;
        s.value = line.substr(space + 1);
        size_t brace = name.find('{');
        if (brace != std::string::npos) {
            EXPECT_EQ(name.back(), '}') << line;
            s.labels = name.substr(brace + 1, name.size() - brace - 2);
            name = name.substr(0, brace);
        }
        samples.emplace(name, s);
    }
    return samples;
}

TEST(MetricsRegistry, PrometheusExpositionRoundTrips)
{
    obs::MetricsRegistry reg;
    reg.counter("rid_queries_total", "solver queries").inc(12345);
    reg.gauge("rid_classify_seconds", "classify wall time")
        .set(0.12345678901234567);
    obs::Histogram &h =
        reg.histogram("rid_latency_seconds", "latency", {0.001, 0.1, 1.0});
    h.observe(0.0005);
    h.observe(0.05);
    h.observe(0.05);
    h.observe(5.0);

    std::map<std::string, std::string> types;
    auto samples = parsePrometheus(reg.prometheusText(), &types);

    EXPECT_EQ(types["rid_queries_total"], "counter");
    EXPECT_EQ(types["rid_classify_seconds"], "gauge");
    EXPECT_EQ(types["rid_latency_seconds"], "histogram");

    ASSERT_EQ(samples.count("rid_queries_total"), 1u);
    EXPECT_EQ(std::strtoull(
                  samples.find("rid_queries_total")->second.value.c_str(),
                  nullptr, 10),
              12345u);

    ASSERT_EQ(samples.count("rid_classify_seconds"), 1u);
    // %.17g renders doubles exactly; parsing back must reproduce the
    // stored bit pattern.
    EXPECT_EQ(std::strtod(
                  samples.find("rid_classify_seconds")->second.value.c_str(),
                  nullptr),
              0.12345678901234567);

    // Histogram: cumulative buckets in bound order, then +Inf, _sum,
    // _count.
    auto range = samples.equal_range("rid_latency_seconds_bucket");
    std::vector<PromSample> buckets;
    for (auto it = range.first; it != range.second; ++it)
        buckets.push_back(it->second);
    ASSERT_EQ(buckets.size(), 4u);
    auto le = [](const PromSample &s) {
        EXPECT_EQ(s.labels.rfind("le=\"", 0), 0u) << s.labels;
        return s.labels.substr(4, s.labels.size() - 5);
    };
    EXPECT_EQ(std::strtod(le(buckets[0]).c_str(), nullptr), 0.001);
    EXPECT_EQ(std::strtod(le(buckets[1]).c_str(), nullptr), 0.1);
    EXPECT_EQ(std::strtod(le(buckets[2]).c_str(), nullptr), 1.0);
    EXPECT_EQ(le(buckets[3]), "+Inf");
    EXPECT_EQ(buckets[0].value, "1");  // 0.0005
    EXPECT_EQ(buckets[1].value, "3");  // + two 0.05 observations
    EXPECT_EQ(buckets[2].value, "3");  // nothing in (0.1, 1.0]
    EXPECT_EQ(buckets[3].value, "4");  // + 5.0

    ASSERT_EQ(samples.count("rid_latency_seconds_sum"), 1u);
    EXPECT_EQ(
        std::strtod(
            samples.find("rid_latency_seconds_sum")->second.value.c_str(),
            nullptr),
        0.0005 + 0.05 + 0.05 + 5.0);
    ASSERT_EQ(samples.count("rid_latency_seconds_count"), 1u);
    EXPECT_EQ(samples.find("rid_latency_seconds_count")->second.value, "4");
}

TEST(MetricsRegistry, CardinalityCapRedirectsNewNamesToOverflow)
{
    obs::MetricsRegistry reg;
    reg.setMaxCardinality(2);
    EXPECT_EQ(reg.maxCardinality(), 2u);

    obs::Counter &a = reg.counter("rid_a_total");
    obs::Gauge &b = reg.gauge("rid_b_seconds");
    EXPECT_EQ(reg.cardinality(), 2u);
    EXPECT_EQ(reg.droppedNames(), 0u);

    // The cap is reached: each further NEW name collapses into the
    // per-kind overflow instrument; updates are never lost.
    obs::Counter &c1 = reg.counter("rid_overflowing_one_total");
    obs::Counter &c2 = reg.counter("rid_overflowing_two_total");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(&c1, &reg.counter(obs::MetricsRegistry::kOverflowCounter));
    c1.inc(3);
    c2.inc(4);
    EXPECT_EQ(
        reg.counter(obs::MetricsRegistry::kOverflowCounter).value(), 7u);

    obs::Gauge &g = reg.gauge("rid_overflowing_gauge");
    EXPECT_EQ(&g, &reg.gauge(obs::MetricsRegistry::kOverflowGauge));
    obs::Histogram &h = reg.histogram("rid_overflowing_hist");
    h.observe(0.5);
    EXPECT_EQ(
        reg.histogram(obs::MetricsRegistry::kOverflowHistogram).count(),
        1u);

    // Four distinct names were dropped, visible both through the
    // accessor and as a scrapeable counter.
    EXPECT_EQ(reg.droppedNames(), 4u);
    EXPECT_EQ(reg.counter(obs::MetricsRegistry::kDroppedNames).value(),
              4u);
    // Caller-visible cardinality never grew past the cap.
    EXPECT_EQ(reg.cardinality(), 2u);

    // Existing instruments are unaffected: looking them up again hands
    // back the same objects, not the overflow bucket.
    a.inc();
    EXPECT_EQ(&reg.counter("rid_a_total"), &a);
    EXPECT_EQ(reg.counter("rid_a_total").value(), 1u);
    EXPECT_EQ(&reg.gauge("rid_b_seconds"), &b);
}

TEST(MetricsRegistry, CardinalityZeroDisablesGuard)
{
    obs::MetricsRegistry reg;
    reg.setMaxCardinality(0);
    for (int i = 0; i < 100; i++)
        reg.counter("rid_name_" + std::to_string(i) + "_total").inc();
    EXPECT_EQ(reg.cardinality(), 100u);
    EXPECT_EQ(reg.droppedNames(), 0u);
}

TEST(MetricsRegistry, GuardNamesAreExemptFromTheCap)
{
    obs::MetricsRegistry reg;
    reg.setMaxCardinality(1);
    reg.counter("rid_only_total").inc();
    // Touching every guard instrument creates them past the cap without
    // dropping anything and without counting toward cardinality.
    reg.counter(obs::MetricsRegistry::kOverflowCounter);
    reg.gauge(obs::MetricsRegistry::kOverflowGauge);
    reg.histogram(obs::MetricsRegistry::kOverflowHistogram);
    reg.counter(obs::MetricsRegistry::kDroppedNames);
    EXPECT_EQ(reg.cardinality(), 1u);
    EXPECT_EQ(reg.droppedNames(), 0u);
}

TEST(MetricsRegistry, LoweringTheCapKeepsExistingInstruments)
{
    obs::MetricsRegistry reg;
    for (int i = 0; i < 5; i++)
        reg.counter("rid_pre_" + std::to_string(i) + "_total").inc(10);
    reg.setMaxCardinality(2);
    // All five pre-existing names still resolve to their own series.
    for (int i = 0; i < 5; i++) {
        EXPECT_EQ(
            reg.counter("rid_pre_" + std::to_string(i) + "_total")
                .value(),
            10u);
    }
    // Only new names overflow.
    reg.counter("rid_new_total").inc();
    EXPECT_EQ(reg.droppedNames(), 1u);
    EXPECT_EQ(
        reg.counter(obs::MetricsRegistry::kOverflowCounter).value(), 1u);
}

TEST(MetricsRegistry, OverflowSeriesAppearInExposition)
{
    obs::MetricsRegistry reg;
    reg.setMaxCardinality(1);
    reg.counter("rid_kept_total").inc();
    reg.counter("rid_dropped_total").inc(9);

    std::string text = reg.prometheusText();
    EXPECT_NE(text.find(obs::MetricsRegistry::kOverflowCounter),
              std::string::npos);
    EXPECT_NE(text.find(obs::MetricsRegistry::kDroppedNames),
              std::string::npos);
    EXPECT_EQ(text.find("rid_dropped_total"), std::string::npos);

    // The dropped name's increments land on the overflow series.
    auto samples = parsePrometheus(text);
    ASSERT_EQ(samples.count(obs::MetricsRegistry::kOverflowCounter), 1u);
    EXPECT_EQ(
        samples.find(obs::MetricsRegistry::kOverflowCounter)->second.value,
        "9");
}

TEST(JsonWriter, ByteStableNestedDocument)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("a").value(1);
    w.key("b").beginArray();
    w.value(1).value(2);
    w.beginObject();
    w.key("c").value("x");
    w.endObject();
    w.endArray();
    w.key("d").value(true);
    w.key("e").value(-2.5);
    w.key("f").raw("[null]");
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"a\":1,\"b\":[1,2,{\"c\":\"x\"}],\"d\":true,"
              "\"e\":-2.5,\"f\":[null]}");
}

TEST(JsonWriter, EscapesStrings)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("quote\"key").value("line\nbreak\tand \\ backslash");
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"quote\\\"key\":\"line\\nbreak\\tand \\\\ backslash\"}");

    obs::JsonValue doc;
    ASSERT_NO_THROW(doc = obs::parseJson(w.str()));
    ASSERT_EQ(doc.members.size(), 1u);
    EXPECT_EQ(doc.members[0].first, "quote\"key");
    EXPECT_EQ(doc.members[0].second.string,
              "line\nbreak\tand \\ backslash");
}

TEST(JsonEscape, EscapesSpecials)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::jsonEscape("a\nb"), "a\\nb");
}

TEST(JsonWriter, ControlBytesUseUnicodeEscapes)
{
    std::string s = "a";
    s += '\x01';
    s += "b";
    EXPECT_EQ(obs::jsonEscape(s), "a\\u0001b");
    obs::JsonWriter w;
    w.value(s);
    obs::JsonValue doc;
    ASSERT_NO_THROW(doc = obs::parseJson(w.str()));
    EXPECT_EQ(doc.string, s);
}

} // anonymous namespace
} // namespace rid
