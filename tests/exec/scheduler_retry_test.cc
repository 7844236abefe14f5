/**
 * @file
 * RunScheduler exception-safety tests: a batch where one task throws
 * commits every task that succeeded, propagates the failure, and a
 * later run() retries only the unresolved tasks — without re-firing
 * progress or cache events for work that already committed.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/store.hh"
#include "exec/scheduler.hh"
#include "exec/thread_pool.hh"
#include "sim/simulator.hh"
#include "workload/profile.hh"

namespace fs = std::filesystem;

namespace wavedyn
{
namespace
{

/** The sentinel samples value the injected runner throws on. */
constexpr std::size_t kPoisonSamples = 9;

/** Enqueue @p count tasks with distinct configs (distinct cache
 *  keys); task @p poison gets the poison samples value. */
RunScheduler
poisonedBatch(std::size_t count, std::size_t poison)
{
    const BenchmarkProfile &bench = benchmarkByName("bzip2");
    RunScheduler sched(29);
    sched.setCache(nullptr); // independent of any process-global cache
    for (std::size_t i = 0; i < count; ++i) {
        RunTask task;
        task.benchmark = &bench;
        task.config = SimConfig::baseline();
        task.config.robSize += static_cast<unsigned>(i);
        task.samples = i == poison ? kPoisonSamples : 8;
        task.intervalInstrs = 100;
        sched.enqueue(task);
    }
    return sched;
}

/** A runner that throws on the poison task while @p armed. */
RunScheduler::TaskRunner
throwingRunner(std::shared_ptr<std::atomic<bool>> armed,
               std::shared_ptr<std::atomic<std::size_t>> invocations)
{
    SimResult canned = simulate(benchmarkByName("bzip2"),
                                SimConfig::baseline(), 4, 64,
                                DvmConfig{});
    return [armed, invocations, canned](const RunTask &t) {
        invocations->fetch_add(1);
        if (t.samples == kPoisonSamples && armed->load())
            throw std::runtime_error("injected task failure");
        return canned;
    };
}

TEST(RunSchedulerRetry, ThrowCommitsCompletedWorkAndRetriesOnlyRest)
{
    RunScheduler sched = poisonedBatch(3, 1);
    auto armed = std::make_shared<std::atomic<bool>>(true);
    auto invocations = std::make_shared<std::atomic<std::size_t>>(0);
    sched.setTaskRunner(throwingRunner(armed, invocations));

    std::mutex mu;
    std::vector<std::size_t> dones;
    sched.onProgress([&](std::size_t done, std::size_t total) {
        std::lock_guard<std::mutex> lock(mu);
        dones.push_back(done);
        EXPECT_EQ(total, 3u);
    });

    ThreadPool pool(1);
    EXPECT_THROW(sched.run(pool), std::runtime_error);
    // Both healthy tasks ran and committed; the poison task consumed
    // an invocation but resolved nothing.
    EXPECT_EQ(invocations->load(), 3u);
    EXPECT_EQ(dones.size(), 2u);
    EXPECT_FALSE(sched.result(0).intervals.empty());
    EXPECT_FALSE(sched.result(2).intervals.empty());

    // Retry with the fault cleared: only the unresolved task runs.
    armed->store(false);
    sched.run(pool);
    EXPECT_EQ(invocations->load(), 4u);
    EXPECT_FALSE(sched.result(1).intervals.empty());
    // The retry's progress count continues the campaign-wide counter.
    EXPECT_EQ(dones.back(), 3u);
}

TEST(RunSchedulerRetry, ThrowInParallelBatchStillRunsEveryOtherTask)
{
    RunScheduler sched = poisonedBatch(8, 3);
    auto armed = std::make_shared<std::atomic<bool>>(true);
    auto invocations = std::make_shared<std::atomic<std::size_t>>(0);
    sched.setTaskRunner(throwingRunner(armed, invocations));

    ThreadPool pool(4);
    EXPECT_THROW(sched.run(pool), std::runtime_error);
    // The contract is "throw after every pending task ran", not
    // fail-fast: all 8 invocations happened, 7 results committed.
    EXPECT_EQ(invocations->load(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        if (i == 3)
            continue;
        EXPECT_FALSE(sched.result(i).intervals.empty()) << i;
    }

    armed->store(false);
    sched.run(pool);
    EXPECT_EQ(invocations->load(), 9u);
    EXPECT_FALSE(sched.result(3).intervals.empty());
}

TEST(RunSchedulerRetry, RetryDoesNotRefireResolvedCacheEvents)
{
    std::string root =
        (fs::temp_directory_path() / "wavedyn-retry-cache-test")
            .string();
    fs::remove_all(root);

    RunScheduler sched = poisonedBatch(3, 1);
    sched.setCache(std::make_shared<ResultCache>(root));
    auto armed = std::make_shared<std::atomic<bool>>(true);
    auto invocations = std::make_shared<std::atomic<std::size_t>>(0);
    sched.setTaskRunner(throwingRunner(armed, invocations));

    std::atomic<std::size_t> hits{0}, misses{0}, stores{0};
    CacheRunEvents events;
    events.hit = [&](const std::string &) { hits++; };
    events.miss = [&](const std::string &) { misses++; };
    events.store = [&](const std::string &) { stores++; };
    sched.onCacheEvents(events);

    ThreadPool pool(1);
    EXPECT_THROW(sched.run(pool), std::runtime_error);
    EXPECT_EQ(misses.load(), 3u);
    EXPECT_EQ(stores.load(), 2u); // only the committed tasks stored

    armed->store(false);
    sched.run(pool);
    // The unresolved task is re-probed (one more miss — its result
    // never made it to the cache) and stored once; the resolved tasks
    // fire nothing again.
    EXPECT_EQ(misses.load(), 4u);
    EXPECT_EQ(stores.load(), 3u);
    EXPECT_EQ(hits.load(), 0u);
    EXPECT_EQ(invocations->load(), 4u);

    fs::remove_all(root);
}

} // anonymous namespace
} // namespace wavedyn
