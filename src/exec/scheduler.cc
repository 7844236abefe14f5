#include "exec/scheduler.hh"

#include <atomic>
#include <cassert>
#include <string>
#include <utility>

#include "cache/key.hh"
#include "dvm/controller.hh"
#include "sim/batch.hh"
#include "telemetry/telemetry.hh"
#include "util/json.hh"

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

    // Probe phase: resolve every unresolved task against the cache
    // before any worker dispatch. Hits complete here, serially and in
    // task order; only the misses are handed to the pool.
    std::vector<std::size_t> pending;
    std::vector<CacheKey> pendingKeys;
    if (cache) {
        std::uint64_t probeStart = telemetryNowUs();
        ScopedSpan probeSpan = tracer.span("cache-probe", "cache");
        for (std::size_t i = first; i < tasks.size(); ++i) {
            if (resolved[i])
                continue;
            const RunTask &t = tasks[i];
            CacheKey key =
                resultCacheKey(*t.benchmark, t.config, t.samples,
                               t.intervalInstrs, t.dvm,
                               cache->simVersion());
            std::optional<SimResult> stored = cache->load(key);
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
                pending.push_back(i);
                pendingKeys.push_back(key);
            }
        }
        reg.observe(tm.probeUs, telemetryNowUs() - probeStart);
    } else {
        for (std::size_t i = first; i < tasks.size(); ++i)
            if (!resolved[i])
                pending.push_back(i);
    }

    // Batch grouping: missing tasks that share a run shape
    // (benchmark, samples, intervalInstrs, DVM policy) fold into one
    // simulateBatch() call of at most globalBatchWidth() lanes —
    // decode once, simulate many. Chunks are formed in task order
    // from the task list and the width alone, never from --jobs, and
    // every simulateBatch() lane is bit-identical to the same run
    // simulated alone (sim/batch.hh), so results — and therefore
    // reports — are byte-identical however tasks were batched. A
    // custom task runner computes per task by contract, so it gets
    // one-task chunks.
    const std::size_t width = runner ? 1 : globalBatchWidth();
    // DVM policies compare by their canonical JSON — the form the
    // cache key hashes — so a new DvmConfig field separates shapes
    // without a hand-kept field list here.
    std::vector<std::string> dvmKeys;
    dvmKeys.reserve(pending.size());
    for (std::size_t i : pending)
        dvmKeys.push_back(writeJson(toJson(tasks[i].dvm), 0));
    auto sameShape = [&](std::size_t a, std::size_t b) {
        const RunTask &ta = tasks[pending[a]];
        const RunTask &tb = tasks[pending[b]];
        return ta.benchmark == tb.benchmark && ta.samples == tb.samples &&
               ta.intervalInstrs == tb.intervalInstrs &&
               dvmKeys[a] == dvmKeys[b];
    };
    // One open (not yet full) chunk per distinct run shape; chunks
    // appear in first-task order and fill in task order.
    std::vector<std::vector<std::size_t>> chunks; // indices into pending
    std::vector<std::size_t> open;
    for (std::size_t k = 0; k < pending.size(); ++k) {
        std::size_t c = open.size();
        for (std::size_t o = 0; o < open.size(); ++o)
            if (sameShape(chunks[open[o]][0], k)) {
                c = o;
                break;
            }
        if (c == open.size()) {
            open.push_back(chunks.size());
            chunks.push_back({});
        }
        std::vector<std::size_t> &chunk = chunks[open[c]];
        chunk.push_back(k);
        if (chunk.size() >= width)
            open.erase(open.begin() + static_cast<std::ptrdiff_t>(c));
    }

    // Publish one computed task: store to cache, mark resolved, fire
    // telemetry and progress. spanStart/spanUs are the task's share of
    // its chunk's wall time — one "run" span and one sim.run_us sample
    // per logical run, whatever the batch width or --jobs setting: the
    // trace's span multiset is pinned jobs- and batch-invariant by
    // tests.
    auto publish = [&](std::size_t k, std::uint64_t spanStart,
                       std::uint64_t spanUs) {
        std::size_t i = pending[k];
        reg.observe(tm.runUs, spanUs);
        reg.add(tm.computed, 1);
        tracer.complete("run", "sim", spanStart, spanUs, "task",
                        std::to_string(i));
        if (cache) {
            std::uint64_t storeStart = telemetryNowUs();
            bool storedOk = cache->store(pendingKeys[k], results[i]);
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

    // parallelFor rethrows the lowest-index exception only after every
    // index ran, so each non-throwing chunk below commits (result
    // slots filled, resolved flags set, events fired) no matter what
    // its siblings did — the exception just propagates past the final
    // commit of `completed`, leaving the per-task flags as the record
    // of what a retry may skip. A chunk is all-or-nothing: a throwing
    // batch commits none of its tasks, and a retry re-groups and
    // re-runs exactly the tasks that never resolved.
    parallelFor(pool, chunks.size(), [&](std::size_t ci) {
        const std::vector<std::size_t> &chunk = chunks[ci];
        if (runner) {
            std::size_t i = pending[chunk[0]];
            std::uint64_t runStart = telemetryNowUs();
            results[i] = runner(tasks[i]);
            publish(chunk[0], runStart, telemetryNowUs() - runStart);
            return;
        }
        const RunTask &t0 = tasks[pending[chunk[0]]];
        std::vector<SimConfig> cfgs;
        cfgs.reserve(chunk.size());
        for (std::size_t k : chunk)
            cfgs.push_back(tasks[pending[k]].config);
        std::uint64_t batchStart = telemetryNowUs();
        std::vector<SimResult> rs =
            simulateBatch(*t0.benchmark, cfgs, t0.samples,
                          t0.intervalInstrs, t0.dvm);
        std::uint64_t share =
            (telemetryNowUs() - batchStart) / chunk.size();
        for (std::size_t l = 0; l < chunk.size(); ++l) {
            results[pending[chunk[l]]] = std::move(rs[l]);
            publish(chunk[l], batchStart + l * share, share);
        }
    });
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
