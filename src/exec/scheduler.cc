#include "exec/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <string>
#include <utility>

#include "cache/key.hh"
#include "sim/batch.hh"
#include "telemetry/telemetry.hh"

namespace
{

/** Interned once; hot-path writes are relaxed atomic adds only. */
struct SchedulerMetrics
{
    wavedyn::MetricId runs;     //!< tasks resolved (hits + computed)
    wavedyn::MetricId computed; //!< tasks that actually simulated
    wavedyn::MetricId hits;
    wavedyn::MetricId misses;
    wavedyn::MetricId stores;
    wavedyn::MetricId storeFailures;
    wavedyn::MetricId runUs;   //!< per-run simulate duration
    wavedyn::MetricId decodeUs; //!< per-shape decode duration
    wavedyn::MetricId probeUs; //!< whole probe phase duration
    wavedyn::MetricId storeUs; //!< per-store publish duration
    std::size_t hitRate;       //!< gauge index

    static const SchedulerMetrics &
    get()
    {
        static SchedulerMetrics m = [] {
            auto &reg = wavedyn::metricsRegistry();
            SchedulerMetrics s;
            s.runs = reg.counter("scheduler.runs");
            s.computed = reg.counter("scheduler.computed");
            s.hits = reg.counter("cache.hits");
            s.misses = reg.counter("cache.misses");
            s.stores = reg.counter("cache.stores");
            s.storeFailures = reg.counter("cache.store_failures");
            s.runUs = reg.histogram("sim.run_us");
            s.decodeUs = reg.histogram("sim.decode_us");
            s.probeUs = reg.histogram("cache.probe_us");
            s.storeUs = reg.histogram("cache.store_us");
            s.hitRate = reg.gauge("cache.hit_rate");
            return s;
        }();
        return m;
    }
};

} // namespace

namespace wavedyn
{

RunScheduler::RunScheduler(std::uint64_t seed)
    : base(seed), cache(activeResultCache())
{
}

std::size_t
RunScheduler::enqueue(RunTask task)
{
    assert(task.benchmark != nullptr);
    tasks.push_back(std::move(task));
    return tasks.size() - 1;
}

void
RunScheduler::run(ThreadPool &pool)
{
    std::size_t first = completed;
    if (first == tasks.size())
        return;
    results.resize(tasks.size());
    resolved.resize(tasks.size(), 0);
    // A retry after a throwing batch re-enters here with some tasks
    // beyond `completed` already resolved — they are committed work
    // and must neither re-run nor re-fire their events.
    std::size_t already = 0;
    for (char r : resolved)
        already += (r != 0);
    // The counter orders completions, not results (those are stored by
    // task index): the hook sees monotonic counts no matter which
    // worker finishes which run.
    std::atomic<std::size_t> done{already};
    std::size_t total = tasks.size();

    // Telemetry observes, never participates: every record below is a
    // relaxed atomic add (metrics) or an owner-thread buffer append
    // (spans), so counts are jobs-invariant and reports untouched.
    const SchedulerMetrics &tm = SchedulerMetrics::get();
    auto &reg = metricsRegistry();
    SpanTracer &tracer = spanTracer();

    std::vector<std::size_t> pending;
    for (std::size_t i = first; i < tasks.size(); ++i)
        if (!resolved[i])
            pending.push_back(i);

    // Probe phase: resolve every unresolved task against the cache
    // before any simulation. The pool works out each key and reads
    // its record ahead; then one serial pass commits every probe in
    // task order (ResultCache::load over the read-ahead), so hits,
    // misses, their events, progress, trace instants, counters and the
    // memory layer's contents are those of a serial probe, whatever
    // --jobs is. Only the misses stay pending.
    std::vector<CacheKey> pendingKeys;
    if (cache) {
        std::uint64_t probeStart = telemetryNowUs();
        ScopedSpan probeSpan = tracer.span("cache-probe", "cache");
        std::vector<CacheKey> keys(pending.size());
        std::vector<CacheRecordRead> reads(pending.size());
        parallelFor(pool, pending.size(), [&](std::size_t k) {
            const RunTask &t = tasks[pending[k]];
            keys[k] = resultCacheKey(*t.benchmark, t.config, t.samples,
                                     t.intervalInstrs, t.dvm,
                                     cache->simVersion());
            reads[k] = cache->readAhead(keys[k]);
        });
        std::vector<std::size_t> missed;
        for (std::size_t k = 0; k < pending.size(); ++k) {
            const std::size_t i = pending[k];
            const CacheKey &key = keys[k];
            std::optional<SimResult> stored =
                cache->load(key, std::move(reads[k]));
            if (stored) {
                results[i] = std::move(*stored);
                resolved[i] = 1;
                reg.add(tm.hits, 1);
                reg.add(tm.runs, 1);
                tracer.instant("cache-hit", "cache", "key", key.hex());
                if (events.hit)
                    events.hit(key.hex());
                if (progress)
                    progress(done.fetch_add(1,
                                            std::memory_order_relaxed) +
                                 1,
                             total);
            } else {
                reg.add(tm.misses, 1);
                tracer.instant("cache-miss", "cache", "key", key.hex());
                if (events.miss)
                    events.miss(key.hex());
                missed.push_back(i);
                pendingKeys.push_back(key);
            }
        }
        pending = std::move(missed);
        reg.observe(tm.probeUs, telemetryNowUs() - probeStart);
    }

    // Run shapes: missing tasks that share (benchmark, samples,
    // intervalInstrs) read one decode, made once per run() and covering
    // the largest fetch-ahead among them. The decode does not depend on
    // the DVM policy, which each run applies in its own pipeline, so
    // runs under different policies share it too. Shapes are numbered
    // in first-task order.
    struct Shape
    {
        std::size_t task; //!< first task of the shape
        std::uint64_t ahead = 0;
        std::vector<MicroOp> ops;
        std::exception_ptr decodeError;
    };
    std::vector<Shape> shapes;
    std::vector<std::size_t> shapeOf(pending.size());
    for (std::size_t k = 0; k < pending.size(); ++k) {
        const RunTask &t = tasks[pending[k]];
        std::size_t s = 0;
        for (; s < shapes.size(); ++s) {
            const RunTask &f = tasks[shapes[s].task];
            if (f.benchmark == t.benchmark && f.samples == t.samples &&
                f.intervalInstrs == t.intervalInstrs)
                break;
        }
        if (s == shapes.size())
            shapes.push_back(Shape{pending[k], 0, {}, nullptr});
        shapes[s].ahead = std::max(shapes[s].ahead, fetchAhead(t.config));
        shapeOf[k] = s;
    }

    // Publish one computed task: store to cache, mark resolved, fire
    // telemetry and progress. One "run" span and one sim.run_us sample
    // per computed run, timed over its own simulation: the trace's
    // span multiset is pinned jobs-invariant by tests.
    std::vector<char> stored(pending.size(), 0);
    auto publish = [&](std::size_t k, std::uint64_t runStart,
                       std::uint64_t runUs) {
        std::size_t i = pending[k];
        reg.observe(tm.runUs, runUs);
        reg.add(tm.computed, 1);
        tracer.complete("run", "sim", runStart, runUs, "task",
                        std::to_string(i));
        if (cache) {
            std::uint64_t storeStart = telemetryNowUs();
            bool storedOk = cache->storeRecord(pendingKeys[k], results[i]);
            stored[k] = storedOk;
            reg.observe(tm.storeUs, telemetryNowUs() - storeStart);
            if (storedOk) {
                reg.add(tm.stores, 1);
                tracer.instant("cache-store", "cache", "key",
                               pendingKeys[k].hex());
                if (events.store)
                    events.store(pendingKeys[k].hex());
            } else {
                reg.add(tm.storeFailures, 1);
                tracer.instant("cache-store-failed", "cache", "key",
                               pendingKeys[k].hex());
                if (events.storeFailed)
                    events.storeFailed(pendingKeys[k].hex());
            }
        }
        resolved[i] = 1;
        reg.add(tm.runs, 1);
        if (progress)
            progress(done.fetch_add(1, std::memory_order_relaxed) + 1,
                     total);
    };

    // Waves of at most one shape per worker, in shape order: decode the
    // wave's shapes in parallel, run each of its tasks as its own pool
    // task over its shape's decode, then free the decodes — so no more
    // than pool.size() decodes are ever live, however many shapes a
    // batch spans. Every run is bit-identical to the same run simulated
    // alone (sim/batch.hh), so results, and therefore reports, do not
    // depend on the waves or on --jobs. A custom task runner computes
    // per task by contract and needs no decode.
    //
    // Each run commits alone: a throwing run (or its shape's decode)
    // records its exception and every other run still commits (result
    // slot filled, resolved flag set, events fired); after the last
    // wave the lowest-index exception propagates past the final commit
    // of `completed`, leaving the per-task flags as the record of what
    // a retry may skip.
    const std::size_t waveShapes = std::max<std::size_t>(1, pool.size());
    std::vector<std::exception_ptr> errors(pending.size());
    std::vector<std::size_t> wave;
    for (std::size_t s0 = 0; s0 < shapes.size(); s0 += waveShapes) {
        const std::size_t s1 = std::min(shapes.size(), s0 + waveShapes);
        if (!runner)
            parallelFor(pool, s1 - s0, [&](std::size_t j) {
                Shape &sh = shapes[s0 + j];
                const RunTask &t = tasks[sh.task];
                std::uint64_t start = telemetryNowUs();
                try {
                    sh.ops = decodeRunShape(*t.benchmark, t.samples,
                                            t.intervalInstrs, sh.ahead);
                } catch (...) {
                    sh.decodeError = std::current_exception();
                }
                reg.observe(tm.decodeUs, telemetryNowUs() - start);
            });
        wave.clear();
        for (std::size_t k = 0; k < pending.size(); ++k)
            if (shapeOf[k] >= s0 && shapeOf[k] < s1)
                wave.push_back(k);
        parallelFor(pool, wave.size(), [&](std::size_t w) {
            const std::size_t k = wave[w];
            const std::size_t i = pending[k];
            const RunTask &t = tasks[i];
            const Shape &sh = shapes[shapeOf[k]];
            try {
                std::uint64_t start = telemetryNowUs();
                if (runner)
                    results[i] = runner(t);
                else if (sh.decodeError)
                    std::rethrow_exception(sh.decodeError);
                else
                    results[i] = simulateDecoded(sh.ops, t.config, t.samples,
                                                 t.intervalInstrs, t.dvm);
                publish(k, start, telemetryNowUs() - start);
            } catch (...) {
                errors[k] = std::current_exception();
            }
        });
        for (std::size_t s = s0; s < s1; ++s)
            shapes[s].ops = std::vector<MicroOp>();
    }
    // The memory layer learns the stored runs in task order, as the
    // probe above, so its contents do not depend on --jobs.
    for (std::size_t k = 0; k < pending.size(); ++k)
        if (stored[k])
            cache->remember(pendingKeys[k], results[pending[k]]);
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    completed = tasks.size();

    // The hit-rate gauge tracks the cache's own lifetime counters —
    // the trajectory a long campaign sees, not just this batch.
    if (cache) {
        ResultCacheStats stats = cache->stats();
        std::uint64_t looked = stats.hits + stats.misses;
        if (looked > 0)
            reg.setGauge(tm.hitRate, static_cast<double>(stats.hits) /
                                         static_cast<double>(looked));
    }
}

void
RunScheduler::releaseResults()
{
    released = completed;
    results.clear();
    results.shrink_to_fit();
}

} // namespace wavedyn
