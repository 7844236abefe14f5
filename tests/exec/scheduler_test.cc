/**
 * @file
 * RunScheduler's per-run tasks over shared decodes: every computed run
 * is its own pool task over its run shape's one decode, and must be
 * byte-equal to simulate() of the same task at any worker count. Its
 * telemetry holds one sim.run_us sample and one "run" span per
 * computed run and one sim.decode_us sample per distinct shape. The
 * cache probe reads records on the pool and commits them in task
 * order, so what a caller sees of it does not depend on the workers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
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

/** What one probing run() showed: everything a caller can observe
 *  of the cache probe, in the order it could observe it. */
struct ProbeRecord
{
    std::vector<std::string> results; //!< encoded, task order
    std::vector<std::string> events;  //!< "hit key" / "miss key", in order
    std::vector<std::size_t> progress; //!< completion counts, sorted
    std::vector<std::string> instants; //!< cache-hit/-miss, sorted
    std::vector<std::string> memory;   //!< memory-layer keys, MRU first
    ResultCacheStats stats;
};

/** Indices into shapedTasks(), each one after the second followed by
 *  a repeat of the index two before it: a repeat is probed close
 *  enough after its first probe to find it in a five-entry memory
 *  layer. */
std::vector<std::size_t>
probeOrder()
{
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < shapedTasks().size(); ++i) {
        order.push_back(i);
        if (i >= 2)
            order.push_back(i - 2);
    }
    return order;
}

/** The tasks of probeOrder(), at eight times the samples: records
 *  large enough that the pool's reads overlap. */
std::vector<RunTask>
probedTasks()
{
    std::vector<RunTask> shaped = shapedTasks();
    for (RunTask &t : shaped)
        t.samples *= 8;
    std::vector<RunTask> tasks;
    for (std::size_t i : probeOrder())
        tasks.push_back(shaped[i]);
    return tasks;
}

/** Probing run()s per ProbeRecord: the later ones hit every task. */
constexpr int kProbePasses = 20;

/**
 * Probe @p dir's cache kProbePasses times with probedTasks() on @p jobs
 * workers, through a memory layer of five entries: fewer than the
 * tasks, so keys are evicted within one run(), and every later run()
 * starts with keys in memory that its own commits evict before their
 * turn.
 */
ProbeRecord
probeRepeatedly(const std::string &dir, std::size_t jobs)
{
    const std::vector<RunTask> tasks = probedTasks();
    auto cache = std::make_shared<ResultCache>(dir);
    cache->setMemoryCapacity(5);
    ThreadPool pool(jobs);
    RunScheduler sched;
    sched.setCache(cache);
    ProbeRecord rec;
    std::mutex mu;
    sched.onProgress([&](std::size_t done, std::size_t) {
        std::lock_guard<std::mutex> lock(mu);
        rec.progress.push_back(done);
    });
    CacheRunEvents events;
    events.hit = [&](const std::string &k) {
        rec.events.push_back("hit " + k);
    };
    events.miss = [&](const std::string &k) {
        rec.events.push_back("miss " + k);
    };
    sched.onCacheEvents(events);
    SpanTracer &tracer = spanTracer();
    tracer.clear();
    tracer.setEnabled(true);
    for (int pass = 0; pass < kProbePasses; ++pass) {
        for (const RunTask &t : tasks)
            sched.enqueue(t);
        sched.run(pool);
    }
    tracer.setEnabled(false);
    for (const TraceEvent &e : tracer.events())
        if (e.ph == 'i' && (e.name == "cache-hit" || e.name == "cache-miss"))
            rec.instants.push_back(e.name + " " + e.argVal);
    tracer.clear();
    for (std::size_t i = 0; i < sched.size(); ++i)
        rec.results.push_back(encodeSimResult(sched.result(i), "x"));
    std::sort(rec.progress.begin(), rec.progress.end());
    std::sort(rec.instants.begin(), rec.instants.end());
    rec.memory = cache->memoryKeys();
    rec.stats = cache->stats();
    return rec;
}

TEST(RunSchedulerProbe, WarmAndHalfWarmProbesDoNotDependOnWorkers)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() /
        ("wavedyn-probe-" +
         std::to_string(reinterpret_cast<std::uintptr_t>(&root)));
    fs::remove_all(root);
    // Seed caches: every task stored (warm), or those of even
    // shapedTasks() index (half).
    const std::vector<RunTask> tasks = probedTasks();
    for (const std::string warmth : {"warm", "half"}) {
        RunScheduler fill;
        fill.setCache(std::make_shared<ResultCache>((root / warmth).string()));
        const std::vector<std::size_t> order = probeOrder();
        for (std::size_t k = 0; k < tasks.size(); ++k)
            if (warmth == "warm" || order[k] % 2 == 0)
                fill.enqueue(tasks[k]);
        ThreadPool pool(2);
        fill.run(pool);
    }
    std::vector<std::string> onePass;
    for (const RunTask &t : tasks)
        onePass.push_back(encodeSimResult(
            simulate(*t.benchmark, t.config, t.samples, t.intervalInstrs,
                     t.dvm),
            "x"));
    std::vector<std::string> expected;
    for (int pass = 0; pass < kProbePasses; ++pass)
        expected.insert(expected.end(), onePass.begin(), onePass.end());
    for (const std::string warmth : {"warm", "half"}) {
        SCOPED_TRACE(warmth);
        std::vector<ProbeRecord> records;
        for (std::size_t jobs : {std::size_t(1), std::size_t(4)}) {
            const fs::path dir = root / (warmth + "-j" + std::to_string(jobs));
            fs::copy(root / warmth, dir, fs::copy_options::recursive);
            records.push_back(probeRepeatedly(dir.string(), jobs));
        }
        const ProbeRecord &one = records[0];
        const ProbeRecord &four = records[1];
        EXPECT_TRUE(one.results == expected);
        EXPECT_TRUE(four.results == expected);
        EXPECT_EQ(four.events, one.events);
        EXPECT_EQ(four.progress, one.progress);
        EXPECT_EQ(four.instants, one.instants);
        EXPECT_EQ(four.memory, one.memory);
        EXPECT_EQ(four.stats.hits, one.stats.hits);
        EXPECT_EQ(four.stats.memHits, one.stats.memHits);
        EXPECT_EQ(four.stats.misses, one.stats.misses);

        // Every task of every pass is probed once; only the first
        // pass can miss, on the tasks the seed left out (a repeat
        // misses with its first probe, both still pending).
        EXPECT_EQ(one.events.size(), kProbePasses * tasks.size());
        EXPECT_EQ(one.instants.size(), kProbePasses * tasks.size());
        EXPECT_EQ(one.progress.size(), kProbePasses * tasks.size());
        std::uint64_t misses = 0;
        for (std::size_t i : probeOrder())
            misses += warmth == "half" && i % 2 == 1;
        EXPECT_EQ(one.stats.misses, misses);
        EXPECT_GT(one.stats.memHits, 0u);
        EXPECT_EQ(one.memory.size(), 5u);
    }
    fs::remove_all(root);
}

} // namespace
} // namespace wavedyn
