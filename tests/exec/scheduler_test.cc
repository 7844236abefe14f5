/**
 * @file
 * RunScheduler's per-run tasks over shared decodes: every computed run
 * is its own pool task over its run shape's one decode, and must be
 * byte-equal to simulate() of the same task at any worker count. Its
 * telemetry holds one sim.run_us sample and one "run" span per
 * computed run and one sim.decode_us sample per distinct shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/store.hh"
#include "exec/scheduler.hh"
#include "exec/thread_pool.hh"
#include "sim/simulator.hh"
#include "telemetry/telemetry.hh"
#include "workload/profile.hh"

namespace wavedyn
{
namespace
{

/**
 * Three shapes (bzip2 and gcc at one run length, gcc at another) of
 * four runs each, interleaved in task order, plus a fourth shape of
 * DVM runs (mcf) and DVM runs sharing the first shape's decode with
 * runs that have DVM off.
 */
std::vector<RunTask>
shapedTasks()
{
    DvmConfig dvm;
    dvm.enabled = true;
    struct Shape
    {
        const char *bench;
        std::size_t samples;
        std::size_t interval;
        bool dvm;
    };
    const Shape shapes[] = {{"bzip2", 8, 160, false},
                            {"gcc", 8, 160, false},
                            {"gcc", 6, 200, false},
                            {"mcf", 8, 160, true},
                            {"bzip2", 8, 160, true}};
    std::vector<RunTask> tasks;
    for (unsigned r = 0; r < 4; ++r)
        for (const Shape &s : shapes) {
            RunTask t;
            t.benchmark = &benchmarkByName(s.bench);
            t.config = SimConfig::baseline();
            t.config.robSize = 32 + 24 * r;
            t.config.fetchWidth = 2 + 2 * r;
            t.samples = s.samples;
            t.intervalInstrs = s.interval;
            if (s.dvm)
                t.dvm = dvm;
            tasks.push_back(t);
        }
    return tasks;
}

/** Distinct run shapes of shapedTasks(): the DVM policy is no part
 *  of a shape. */
constexpr std::uint64_t kShapes = 4;

std::uint64_t
histogramCount(const MetricsSnapshot &snap, const std::string &name)
{
    for (const MetricsSnapshot::Histogram &h : snap.histograms)
        if (h.name == name)
            return h.count;
    return 0;
}

TEST(RunSchedulerShapes, EveryRunMatchesSimulateAtOneAndFourWorkers)
{
    const std::vector<RunTask> tasks = shapedTasks();
    std::vector<std::string> expected;
    for (const RunTask &t : tasks)
        expected.push_back(encodeSimResult(
            simulate(*t.benchmark, t.config, t.samples, t.intervalInstrs,
                     t.dvm),
            "x"));
    for (std::size_t jobs : {std::size_t(1), std::size_t(4)}) {
        ThreadPool pool(jobs);
        RunScheduler sched;
        sched.setCache(nullptr);
        for (const RunTask &t : tasks)
            sched.enqueue(t);
        sched.run(pool);
        for (std::size_t i = 0; i < tasks.size(); ++i)
            EXPECT_TRUE(encodeSimResult(sched.result(i), "x") ==
                        expected[i])
                << "jobs=" << jobs << " task=" << i;
    }
}

TEST(RunSchedulerShapes, TelemetryCountsRunsAndDecodedShapes)
{
    const std::vector<RunTask> tasks = shapedTasks();
    MetricsRegistry &reg = metricsRegistry();
    SpanTracer &tracer = spanTracer();
    std::vector<std::vector<std::string>> runSpans;
    for (std::size_t jobs : {std::size_t(1), std::size_t(4)}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        ThreadPool pool(jobs);
        RunScheduler sched;
        sched.setCache(nullptr);
        for (const RunTask &t : tasks)
            sched.enqueue(t);
        const MetricsSnapshot before = reg.snapshot();
        tracer.clear();
        tracer.setEnabled(true);
        sched.run(pool);
        tracer.setEnabled(false);
        const MetricsSnapshot after = reg.snapshot();

        EXPECT_EQ(after.counterOr("scheduler.computed") -
                      before.counterOr("scheduler.computed"),
                  tasks.size());
        EXPECT_EQ(histogramCount(after, "sim.run_us") -
                      histogramCount(before, "sim.run_us"),
                  tasks.size());
        EXPECT_EQ(histogramCount(after, "sim.decode_us") -
                      histogramCount(before, "sim.decode_us"),
                  kShapes);

        std::vector<std::string> spans;
        for (const TraceEvent &e : tracer.events())
            if (e.ph == 'X' && e.name == "run")
                spans.push_back(e.cat + "/" + e.argKey + "=" + e.argVal);
        std::sort(spans.begin(), spans.end());
        EXPECT_EQ(spans.size(), tasks.size());
        runSpans.push_back(spans);

        // A second run() with nothing new decodes and runs nothing.
        const MetricsSnapshot again = reg.snapshot();
        sched.run(pool);
        EXPECT_EQ(histogramCount(reg.snapshot(), "sim.decode_us"),
                  histogramCount(again, "sim.decode_us"));
    }
    tracer.clear();
    EXPECT_EQ(runSpans[0], runSpans[1]);
}

} // namespace
} // namespace wavedyn
