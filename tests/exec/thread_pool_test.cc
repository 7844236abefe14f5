/**
 * @file
 * Tests for the parallel experiment engine's execution primitives:
 * ThreadPool, parallelFor / parallelMap, and the
 * RunScheduler batching layer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "cache/store.hh"
#include "core/sampling.hh"
#include "dvm/controller.hh"
#include "exec/scheduler.hh"
#include "exec/thread_pool.hh"
#include "telemetry/telemetry.hh"
#include "util/json.hh"
#include "util/options.hh"
#include "workload/profile.hh"

namespace wavedyn
{
namespace
{

TEST(ThreadPool, SpawnsRequestedWorkers)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansCurrentJobs)
{
    setJobs(2);
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 2u);
    setJobs(0);
}

TEST(ThreadPool, PostRunsTask)
{
    std::atomic<int> hits{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 10; ++i)
            pool.post([&] { ++hits; });
        // Destructor drains the queue before joining.
    }
    EXPECT_EQ(hits.load(), 10);
}

TEST(ParallelFor, CoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(100);
    parallelFor(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop)
{
    ThreadPool pool(2);
    parallelFor(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ParallelMap, ResultsAreIndexOrdered)
{
    ThreadPool pool(4);
    auto out = parallelMap(pool, 257,
                           [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, MatchesSerialExactly)
{
    auto fn = [](std::size_t i) {
        return static_cast<double>(i) * 0.7351 + 1.0 / (i + 1.0);
    };
    ThreadPool serial(1), wide(8);
    auto a = parallelMap(serial, 500, fn);
    auto b = parallelMap(wide, 500, fn);
    EXPECT_EQ(a, b); // bit-identical, not just approximately equal
}

TEST(ParallelFor, PoolIsReusableAcrossBatches)
{
    ThreadPool pool(4);
    std::atomic<int> acc{0};
    for (int round = 0; round < 20; ++round)
        parallelFor(pool, 32, [&](std::size_t) { ++acc; });
    EXPECT_EQ(acc.load(), 20 * 32);
}

TEST(ParallelFor, PropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(parallelFor(pool, 64,
                             [](std::size_t i) {
                                 if (i == 17)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, LowestIndexExceptionWinsDeterministically)
{
    ThreadPool pool(4);
    for (int round = 0; round < 10; ++round) {
        try {
            parallelFor(pool, 64, [](std::size_t i) {
                if (i == 9)
                    throw std::runtime_error("nine");
                if (i == 41)
                    throw std::runtime_error("forty-one");
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "nine");
        }
    }
}

TEST(ParallelFor, AllIndicesRunDespiteException)
{
    // No fail-fast: every index still executes, so partial side effects
    // are deterministic even on the error path.
    ThreadPool pool(4);
    std::atomic<int> hits{0};
    try {
        parallelFor(pool, 50, [&](std::size_t i) {
            ++hits;
            if (i % 10 == 3)
                throw std::runtime_error("x");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &) {
    }
    EXPECT_EQ(hits.load(), 50);
}

TEST(ParallelFor, UsableAfterException)
{
    ThreadPool pool(4);
    EXPECT_THROW(parallelFor(pool, 8,
                             [](std::size_t) {
                                 throw std::runtime_error("x");
                             }),
                 std::runtime_error);
    auto out = parallelMap(pool, 8, [](std::size_t i) { return i; });
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(ParallelFor, ActuallyRunsConcurrently)
{
    // Four tasks rendezvous at a barrier; this only completes if four
    // workers execute at the same time.
    ThreadPool pool(4);
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    parallelFor(pool, 4, [&](std::size_t) {
        std::unique_lock<std::mutex> lock(mu);
        ++arrived;
        cv.notify_all();
        cv.wait(lock, [&] { return arrived == 4; });
    });
    EXPECT_EQ(arrived, 4);
}

TEST(ParallelFor, NestedSectionsRunInlineWithoutDeadlock)
{
    // An inner parallelFor issued from a worker must not wait on the
    // (fully occupied) pool.
    ThreadPool pool(2);
    std::atomic<int> inner{0};
    parallelFor(pool, 4, [&](std::size_t) {
        EXPECT_TRUE(ThreadPool::onWorkerThread());
        parallelFor(pool, 8, [&](std::size_t) { ++inner; });
    });
    EXPECT_EQ(inner.load(), 4 * 8);
    EXPECT_FALSE(ThreadPool::onWorkerThread());
}

/** Samples in the pool.task_us histogram so far. */
std::uint64_t
poolTaskSamples()
{
    for (const auto &h : metricsRegistry().snapshot().histograms)
        if (h.name == "pool.task_us")
            return h.count;
    return 0;
}

TEST(ParallelFor, TimesOnlyOutermostIndices)
{
    // Busy time is one sample per outermost index: nested sections run
    // inside a timed index, so the count is the same for any pool size.
    for (std::size_t workers : {1u, 4u}) {
        ThreadPool pool(workers);
        const std::uint64_t before = poolTaskSamples();
        parallelFor(pool, 6, [&](std::size_t) {
            parallelFor(pool, 5, [](std::size_t) {});
        });
        parallelChunks(pool, 10, 3, [](std::size_t, std::size_t,
                                       std::size_t) {});
        EXPECT_EQ(poolTaskSamples() - before, 6u + 4u)
            << workers << " workers";
    }
}

TEST(GlobalPool, TracksJobsSetting)
{
    setJobs(3);
    EXPECT_EQ(ThreadPool::global().size(), 3u);
    setJobs(5);
    EXPECT_EQ(ThreadPool::global().size(), 5u);
    setJobs(0);
    EXPECT_EQ(ThreadPool::global().size(), defaultJobs());
}

TEST(RunScheduler, ResultsMatchDirectSimulation)
{
    const BenchmarkProfile &bench = benchmarkByName("bzip2");
    DesignSpace space = DesignSpace::paper();
    Rng rng(7);
    auto points = randomTestSample(space, 6, rng);

    RunScheduler sched(42);
    for (const auto &p : points) {
        RunTask task;
        task.benchmark = &bench;
        task.config = SimConfig::fromDesignPoint(space, p);
        task.samples = 16;
        task.intervalInstrs = 120;
        sched.enqueue(task);
    }
    ASSERT_EQ(sched.size(), points.size());

    ThreadPool pool(4);
    sched.run(pool);

    for (std::size_t i = 0; i < points.size(); ++i) {
        SimResult direct =
            simulate(bench, SimConfig::fromDesignPoint(space, points[i]),
                     16, 120);
        EXPECT_EQ(sched.result(i).trace(Domain::Cpi),
                  direct.trace(Domain::Cpi));
        EXPECT_EQ(sched.result(i).totalCycles, direct.totalCycles);
    }
}

TEST(RunScheduler, IncrementalEnqueueRunsOnlyNewTasks)
{
    const BenchmarkProfile &bench = benchmarkByName("bzip2");
    DesignSpace space = DesignSpace::paper();
    Rng rng(8);
    auto points = randomTestSample(space, 4, rng);

    RunScheduler sched;
    RunTask task;
    task.benchmark = &bench;
    task.samples = 8;
    task.intervalInstrs = 100;

    ThreadPool pool(2);
    task.config = SimConfig::fromDesignPoint(space, points[0]);
    sched.enqueue(task);
    sched.run(pool);
    auto first = sched.result(0).trace(Domain::Cpi);

    for (std::size_t i = 1; i < points.size(); ++i) {
        task.config = SimConfig::fromDesignPoint(space, points[i]);
        sched.enqueue(task);
    }
    sched.run(pool);
    // The already-completed task keeps its result...
    EXPECT_EQ(sched.result(0).trace(Domain::Cpi), first);
    // ...and the later batch filled in the rest.
    for (std::size_t i = 1; i < points.size(); ++i)
        EXPECT_FALSE(sched.result(i).intervals.empty());
}

TEST(RunScheduler, EachTaskRunsUnderItsOwnDvmPolicy)
{
    // For every member of the canonical DvmConfig document, tasks that
    // differ only in that member share one decode but must each run
    // under their own policy. The members come from toJson, so a new
    // DvmConfig field is covered without editing this test. Two base
    // policies (short and long adaptation windows) between them make
    // every member's change visible in the simulated result.
    const BenchmarkProfile &bench = benchmarkByName("bzip2");
    const SimConfig cfg = SimConfig::baseline();
    DvmConfig shortWindow;
    shortWindow.enabled = true;
    shortWindow.threshold = 0.05;
    shortWindow.sampleCycles = 100;
    DvmConfig longWindow = shortWindow;
    longWindow.sampleCycles = 1000;
    const DvmConfig bases[] = {shortWindow, longWindow};

    const JsonValue doc = toJson(shortWindow);
    ThreadPool pool(2);
    for (const auto &member : doc.members()) {
        SCOPED_TRACE(member.first);
        std::vector<DvmConfig> policies;
        for (const DvmConfig &base : bases) {
            JsonValue changed = toJson(base);
            const JsonValue &v = changed.at(member.first);
            if (v.isBool())
                changed.set(member.first, !v.asBool());
            else if (v.numberKind() == JsonValue::NumberKind::Double)
                changed.set(member.first, v.asDouble() / 8.0);
            else
                changed.set(member.first, v.asUint64() / 2);
            policies.push_back(base);
            policies.push_back(dvmConfigFromJson(changed));
        }

        RunScheduler sched;
        sched.setCache(nullptr);
        for (const DvmConfig &dvm : policies) {
            RunTask task;
            task.benchmark = &bench;
            task.config = cfg;
            task.samples = 8;
            task.intervalInstrs = 400;
            task.dvm = dvm;
            sched.enqueue(task);
        }
        sched.run(pool);
        for (std::size_t i = 0; i < policies.size(); ++i)
            EXPECT_EQ(encodeSimResult(sched.result(i), "x"),
                      encodeSimResult(simulate(bench, cfg, 8, 400,
                                               policies[i]),
                                      "x"))
                << "task " << i;
    }
}

TEST(RunScheduler, TaskRngIsStableAndPerTask)
{
    RunScheduler sched(99);
    Rng a0 = sched.taskRng(0);
    Rng a0again = sched.taskRng(0);
    Rng a1 = sched.taskRng(1);
    EXPECT_EQ(a0.next(), a0again.next());
    EXPECT_NE(a0.next(), a1.next());
}

} // anonymous namespace
} // namespace wavedyn
