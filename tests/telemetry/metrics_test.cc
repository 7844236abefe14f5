/**
 * @file
 * Tests for the sharded metrics registry: exact sums under concurrent
 * writers, deterministic snapshots regardless of which thread did the
 * work, the fixed histogram bucket layout, and JSON rendering.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "telemetry/metrics.hh"
#include "util/json.hh"

namespace wavedyn
{
namespace
{

TEST(Metrics, CountersSumExactlyAcrossThreads)
{
    MetricsRegistry reg;
    MetricId runs = reg.counter("test.runs");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 10000;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&reg, runs] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                reg.add(runs, 1);
        });
    for (auto &t : threads)
        t.join();

    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counterOr("test.runs"), kThreads * kPerThread);
}

TEST(Metrics, RegistrationInternsByName)
{
    MetricsRegistry reg;
    MetricId a = reg.counter("same");
    MetricId b = reg.counter("same");
    EXPECT_EQ(a.slot, b.slot);

    // Same name as a different kind is a programming error.
    EXPECT_THROW(reg.histogram("same"), std::logic_error);
}

TEST(Metrics, SnapshotIsDeterministicAcrossWorkDistributions)
{
    // The same logical operations, once all from one thread and once
    // spread over four, must produce identical snapshots — the
    // summation merge is commutative.
    auto record = [](MetricsRegistry &reg, int threads) {
        MetricId c = reg.counter("c");
        MetricId h = reg.histogram("h");
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t)
            pool.emplace_back([&reg, c, h, t, threads] {
                for (std::uint64_t i = static_cast<std::uint64_t>(t);
                     i < 1000; i += static_cast<std::uint64_t>(threads)) {
                    reg.add(c, i);
                    reg.observe(h, i);
                }
            });
        for (auto &t : pool)
            t.join();
    };

    MetricsRegistry one, four;
    record(one, 1);
    record(four, 4);
    MetricsSnapshot a = one.snapshot();
    MetricsSnapshot b = four.snapshot();
    EXPECT_EQ(a.counters, b.counters);
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (std::size_t i = 0; i < a.histograms.size(); ++i) {
        EXPECT_EQ(a.histograms[i].name, b.histograms[i].name);
        EXPECT_EQ(a.histograms[i].count, b.histograms[i].count);
        EXPECT_EQ(a.histograms[i].sumUs, b.histograms[i].sumUs);
        EXPECT_EQ(a.histograms[i].buckets, b.histograms[i].buckets);
    }
}

TEST(Metrics, HistogramBucketLayout)
{
    // Every observation lands in the bucket whose upper bound is the
    // first one >= the value; the last bucket is the overflow.
    EXPECT_EQ(HistogramLayout::bucketOf(0), 0u);
    EXPECT_EQ(HistogramLayout::bucketOf(1), 0u);
    EXPECT_EQ(HistogramLayout::bucketOf(2), 1u);
    EXPECT_EQ(HistogramLayout::bucketOf(3), 2u);
    EXPECT_EQ(HistogramLayout::bucketOf(4), 2u);
    EXPECT_EQ(HistogramLayout::bucketOf(5), 3u);

    for (std::size_t b = 0; b + 1 < HistogramLayout::kBuckets; ++b) {
        std::uint64_t bound = HistogramLayout::upperBoundUs(b);
        EXPECT_EQ(HistogramLayout::bucketOf(bound), b)
            << "bound " << bound;
        EXPECT_EQ(HistogramLayout::bucketOf(bound + 1), b + 1)
            << "bound " << bound;
    }
    // Far beyond the last bounded bucket: overflow.
    EXPECT_EQ(HistogramLayout::bucketOf(std::uint64_t{1} << 40),
              HistogramLayout::kBuckets - 1);
}

TEST(Metrics, HistogramCountMatchesBucketSum)
{
    MetricsRegistry reg;
    MetricId h = reg.histogram("dur");
    std::uint64_t total = 0;
    for (std::uint64_t v : {0u, 1u, 7u, 100u, 5000u, 1u << 30}) {
        reg.observe(h, v);
        total += v;
    }
    MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const MetricsSnapshot::Histogram &hist = snap.histograms[0];
    EXPECT_EQ(hist.count, 6u);
    EXPECT_EQ(hist.sumUs, total);
    std::uint64_t bucketSum = 0;
    for (std::uint64_t b : hist.buckets)
        bucketSum += b;
    EXPECT_EQ(bucketSum, hist.count);
}

TEST(Metrics, GaugesAreLastWriterWins)
{
    MetricsRegistry reg;
    std::size_t g = reg.gauge("rate");
    reg.setGauge(g, 0.25);
    reg.setGauge(g, 0.75);
    MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].first, "rate");
    EXPECT_DOUBLE_EQ(snap.gauges[0].second, 0.75);
}

TEST(Metrics, ResetZeroesEverythingKeepingRegistrations)
{
    MetricsRegistry reg;
    MetricId c = reg.counter("c");
    std::size_t g = reg.gauge("g");
    reg.add(c, 42);
    reg.setGauge(g, 1.5);
    reg.reset();
    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counterOr("c"), 0u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(snap.gauges[0].second, 0.0);
    // The id from before the reset still works.
    reg.add(c, 7);
    EXPECT_EQ(reg.snapshot().counterOr("c"), 7u);
}

TEST(Metrics, JsonRoundTripAndSchema)
{
    MetricsRegistry reg;
    reg.add(reg.counter("runs"), 12);
    reg.observe(reg.histogram("dur"), 100);
    reg.setGauge(reg.gauge("rate"), 0.5);

    JsonValue doc = metricsToJson(reg.snapshot());
    // writeJson/parseJson round trip keeps the document stable.
    JsonValue reparsed = parseJson(writeJson(doc));
    EXPECT_EQ(reparsed, doc);
    EXPECT_EQ(doc.at("schema").asString(), "wavedyn-metrics-v1");
    EXPECT_EQ(doc.at("counters").at("runs").asUint64(), 12u);
    EXPECT_DOUBLE_EQ(doc.at("gauges").at("rate").asDouble(), 0.5);
    EXPECT_EQ(doc.at("histograms").at("dur").at("count").asUint64(), 1u);
    EXPECT_EQ(doc.at("bucket_bounds_us").size(),
              HistogramLayout::kBuckets - 1);
}

} // namespace
} // namespace wavedyn
