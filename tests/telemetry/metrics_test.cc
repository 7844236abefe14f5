/**
 * @file
 * Tests for the sharded metrics registry: exact sums under concurrent
 * writers, deterministic snapshots regardless of which thread did the
 * work, the fixed histogram bucket layout, JSON rendering, and the
 * stderr summary's derived figures.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
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

TEST(TelemetrySummary, UtilizationIsPoolBusyTimeOverWallTimesJobs)
{
    auto line = [](const MetricsSnapshot &snap, std::size_t jobs) {
        std::string out = renderTelemetrySummary(snap, 2000000, jobs);
        return out.substr(0, out.find('\n'));
    };
    MetricsSnapshot snap;
    MetricsSnapshot::Histogram sim;
    sim.name = "sim.run_us";
    sim.count = 4;
    sim.sumUs = 8000000;
    snap.histograms.push_back(sim);
    // Simulation time is no longer the busy time: a warm campaign
    // simulates nothing and still keeps the pool busy.
    EXPECT_EQ(line(snap, 4), "-- telemetry: wall 2.000 s, jobs 4");

    MetricsSnapshot::Histogram pool;
    pool.name = "pool.task_us";
    pool.count = 12;
    pool.sumUs = 6000000;
    snap.histograms.push_back(pool);
    EXPECT_EQ(line(snap, 4),
              "-- telemetry: wall 2.000 s, jobs 4, pool utilization 75%");
    // Rounding overshoot clamps at 100%.
    EXPECT_EQ(line(snap, 2),
              "-- telemetry: wall 2.000 s, jobs 2, pool utilization 100%");
}

TEST(TelemetrySummary, SweepSplitsPredictFromScore)
{
    MetricsSnapshot snap;
    EXPECT_EQ(renderTelemetrySummary(snap, 1000000, 1).find("sweep"),
              std::string::npos);
    MetricsSnapshot::Histogram predict;
    predict.name = "sweep.predict_us";
    predict.count = 3;
    predict.sumUs = 3000000;
    MetricsSnapshot::Histogram score;
    score.name = "sweep.score_us";
    score.count = 3;
    score.sumUs = 1000000;
    snap.histograms = {predict, score};
    EXPECT_NE(renderTelemetrySummary(snap, 1000000, 1)
                  .find("-- telemetry: sweep worker time: predict "
                        "3.000 s (75%), score 1.000 s (25%)\n"),
              std::string::npos);
    // With kernel counters: unit terms per row.
    snap.counters = {{"predict.rbf_rows", 4}, {"predict.rbf_terms", 3386}};
    EXPECT_NE(renderTelemetrySummary(snap, 1000000, 1)
                  .find("-- telemetry: sweep worker time: predict "
                        "3.000 s (75%), score 1.000 s (25%); kernel "
                        "846.5 terms/row\n"),
              std::string::npos);
    // With the chunk filter: a third share of the same total.
    MetricsSnapshot::Histogram filter;
    filter.name = "sweep.filter_us";
    filter.count = 2;
    filter.sumUs = 4000000;
    snap.histograms.push_back(filter);
    EXPECT_NE(renderTelemetrySummary(snap, 1000000, 1)
                  .find("-- telemetry: sweep worker time: predict "
                        "3.000 s (38%), score 1.000 s (12%), filter "
                        "4.000 s (50%); kernel 846.5 terms/row\n"),
              std::string::npos);
    // With the score kernels' variant gauge: named in the score share.
    snap.gauges = {{"sweep.score_avx2", 1.0}};
    EXPECT_NE(renderTelemetrySummary(snap, 1000000, 1)
                  .find("-- telemetry: sweep worker time: predict "
                        "3.000 s (38%), score 1.000 s (12%, avx2), "
                        "filter 4.000 s (50%); kernel 846.5 terms/row\n"),
              std::string::npos);
    snap.gauges = {{"sweep.score_avx2", 0.0}};
    EXPECT_NE(renderTelemetrySummary(snap, 1000000, 1)
                  .find("score 1.000 s (12%, baseline), filter"),
              std::string::npos);
}

TEST(TelemetrySummary, SimLineReadsCyclesSkipsScansAndRunTime)
{
    MetricsSnapshot snap;
    EXPECT_EQ(renderTelemetrySummary(snap, 1000000, 1).find("sim:"),
              std::string::npos);
    snap.counters = {{"sim.cycles", 4000},
                     {"sim.idle_skipped_cycles", 3000},
                     {"sim.issue_idle_scans", 50},
                     {"sim.issue_scans", 200}};
    MetricsSnapshot::Histogram run;
    run.name = "sim.run_us";
    run.count = 3;
    run.sumUs = 2500000;
    snap.histograms = {run};
    EXPECT_NE(renderTelemetrySummary(snap, 1000000, 1)
                  .find("-- telemetry: sim: 4000 cycles, 75.0% "
                        "idle-skipped, 200 issue scans (25.0% idle), run "
                        "time 2.500 s\n"),
              std::string::npos);
    // No scans (every cycle skipped) and no run-time samples.
    snap.counters = {{"sim.cycles", 8}, {"sim.idle_skipped_cycles", 8}};
    snap.histograms.clear();
    EXPECT_NE(renderTelemetrySummary(snap, 1000000, 1)
                  .find("-- telemetry: sim: 8 cycles, 100.0% "
                        "idle-skipped, 0 issue scans (0.0% idle), run "
                        "time 0.000 s\n"),
              std::string::npos);
}

TEST(TelemetrySummary, CacheLineEndsWithProbeTime)
{
    MetricsSnapshot snap;
    EXPECT_EQ(renderTelemetrySummary(snap, 1000000, 1).find("cache"),
              std::string::npos);
    snap.counters = {{"cache.hits", 3}, {"cache.misses", 1},
                     {"cache.stores", 1}};
    EXPECT_NE(renderTelemetrySummary(snap, 1000000, 1)
                  .find("-- telemetry: cache: 3 hits / 1 misses (75.0% "
                        "hit rate), 1 stores\n"),
              std::string::npos);
    // Probe phases: their summed time ends the line.
    MetricsSnapshot::Histogram probe;
    probe.name = "cache.probe_us";
    probe.count = 2;
    probe.sumUs = 12000;
    snap.histograms = {probe};
    EXPECT_NE(renderTelemetrySummary(snap, 1000000, 1)
                  .find("-- telemetry: cache: 3 hits / 1 misses (75.0% "
                        "hit rate), 1 stores, probe 0.012 s\n"),
              std::string::npos);
}

} // namespace
} // namespace wavedyn
