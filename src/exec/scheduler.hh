/**
 * @file
 * Batched scheduling of simulation runs.
 *
 * A campaign (suite or single experiment) enqueues every
 * (configuration x benchmark) run as one RunTask, then executes the
 * whole batch on a ThreadPool. Flattening the campaign into a single
 * task list keeps all cores busy across benchmark boundaries — the
 * last configurations of one benchmark overlap the first of the next
 * instead of serialising on a per-benchmark barrier.
 *
 * Results are stored by task index, and each task that needs
 * randomness must draw from its taskRng(i) (a child stream derived
 * via Rng::split from the scheduler seed), so the outcome of a batch
 * is bit-identical for any worker count. simulate() itself is a pure
 * function of its inputs — the synthetic workload uses a counter-based
 * generator — so today the child streams exist to keep that guarantee
 * when stochastic run components are added.
 *
 * That purity also admits a content-addressed result cache
 * (cache/store.hh): run() probes the attached cache for every fresh
 * task before simulating anything, fills hits directly into the result
 * slots, and only the missing tasks are simulated. Because hits are
 * byte-exact stored results, a campaign's output is identical whether
 * any given run was computed or replayed.
 *
 * Probe contract: the reads are parallel, the commits are in task
 * order. The pool works out each fresh task's key and reads and
 * decodes its record (ResultCache::readAhead), which touches no
 * counter and not the memory layer; then the calling thread commits
 * every probe in task order (ResultCache::load over the read-ahead),
 * firing the hit/miss event, progress, trace instant and counters as a
 * serial probe would and updating the memory layer in that order. The
 * runs computed afterwards are stored from the workers
 * (ResultCache::storeRecord) and enter the memory layer in task order
 * once the batch is done (ResultCache::remember). So events, progress,
 * trace instants, counters, the memory layer's contents and
 * cache.mem_hits do not depend on --jobs.
 *
 * Every missing task is its own pool task. Tasks that share a run
 * shape — same benchmark, samples and intervalInstrs, differing only
 * in machine config or DVM policy — read one decode of that shape
 * (sim/batch.hh), made once per run() in parallel with the other
 * shapes' decodes. Shapes go through in waves of at most one shape per
 * pool worker, and a wave's decodes are freed before the next wave
 * decodes, so live decodes never outnumber the workers. Every run is
 * bit-identical to the same run simulated alone, so every report
 * stays byte-identical for any --jobs. Progress, cache, and telemetry
 * events fire once per logical run: `sim.run_us` holds each computed
 * run's own simulation time and `sim.decode_us` one sample per decoded
 * shape.
 */

#ifndef WAVEDYN_EXEC_SCHEDULER_HH
#define WAVEDYN_EXEC_SCHEDULER_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/store.hh"
#include "exec/thread_pool.hh"
#include "sim/simulator.hh"
#include "util/rng.hh"

namespace wavedyn
{

/**
 * Live progress callback: (completed runs, total runs enqueued).
 * Invoked from worker threads as each run finishes — the counts are
 * monotonic (an atomic counter orders them) but calls may interleave,
 * so the callback must be thread-safe. jobs == 1 degenerates to
 * in-order calls from the calling thread. Cache hits also advance the
 * count (a hit IS the run's completion), fired in task order from the
 * calling thread when the probe phase commits.
 */
using RunProgress = std::function<void(std::size_t, std::size_t)>;

/**
 * Result-cache event hooks of one run() batch; each receives the
 * 32-hex-digit cache key of the run. hit/miss fire in task order from
 * the calling thread during the probe phase; store and storeFailed
 * fire from worker threads as recomputed runs are published, so they
 * must be thread-safe. storeFailed reports a store() that could not
 * publish its entry (read-only or full cache dir) — the run itself
 * still succeeded, but the cache will keep missing it. All optional.
 */
struct CacheRunEvents
{
    std::function<void(const std::string &)> hit;
    std::function<void(const std::string &)> miss;
    std::function<void(const std::string &)> store;
    std::function<void(const std::string &)> storeFailed;
};

/** One simulation run of a batched campaign. */
struct RunTask
{
    const BenchmarkProfile *benchmark = nullptr;
    SimConfig config;
    std::size_t samples = 128;
    std::size_t intervalInstrs = 256;
    DvmConfig dvm;
};

/**
 * Collects RunTasks and executes them in one parallel batch.
 *
 * Usage: enqueue() every run (the returned index identifies it), call
 * run(), then read result(i). A scheduler can be reused: enqueueing
 * after run() and calling run() again executes only the new tasks.
 */
class RunScheduler
{
  public:
    /**
     * @p seed roots the per-task child RNG streams. The scheduler
     * captures activeResultCache() here — campaigns built after the
     * CLI configures the cache get lookup-before-schedule for free.
     * The seed is deliberately NOT part of the cache key: simulate()
     * is pure and taskRng streams are unused by it.
     */
    explicit RunScheduler(std::uint64_t seed = 0x5eed);

    /** Queue one run; returns its task index. */
    std::size_t enqueue(RunTask task);

    /** Total tasks enqueued so far. */
    std::size_t size() const { return tasks.size(); }

    /**
     * Execute all not-yet-resolved tasks on @p pool; blocks until
     * done.
     *
     * Exception safety — commit what succeeded: if a task throws
     * (simulate() on a defective input, a failed decode of its shape,
     * or an injected task runner), the lowest-index exception
     * propagates after every other pending task has run, and all work
     * that completed stays committed. Each run commits alone: a throw
     * leaves only its own task unresolved, even when other runs share
     * its decode. A later run() on the same scheduler retries only the
     * tasks that never resolved: resolved tasks keep their results
     * and never re-fire their progress or cache hit/store events (an
     * unresolved task is re-probed, so its cache miss event may fire
     * again). result(i) is only valid for resolved tasks.
     */
    void run(ThreadPool &pool);

    /** Execute on the process-global pool. */
    void run() { run(ThreadPool::global()); }

    /** Result of task @p i. @pre run() has covered index i and
     *  neither releaseResults() nor takeResult(i) was called since. */
    const SimResult &
    result(std::size_t i) const
    {
        assert(i >= released && i < results.size());
        return results[i];
    }

    /**
     * Move task @p i's result out of the scheduler — the stored slot
     * is left empty, so a campaign that consumes results task by task
     * (assembleExperiment) never holds a run's traces twice. result(i)
     * and a second takeResult(i) are invalid afterwards.
     * @pre as result(i).
     */
    SimResult
    takeResult(std::size_t i)
    {
        assert(i >= released && i < results.size());
        return std::move(results[i]);
    }

    /**
     * Install a live progress hook invoked from the workers during
     * run() — see RunProgress for the threading contract. Pass an
     * empty function to remove it.
     */
    void onProgress(RunProgress callback) { progress = std::move(callback); }

    /**
     * Install cache event hooks fired by run() — see CacheRunEvents
     * for the threading contract. No-ops while no cache is attached.
     */
    void onCacheEvents(CacheRunEvents callbacks)
    {
        events = std::move(callbacks);
    }

    /**
     * Replace the cache captured at construction (nullptr disables
     * caching). Tests use this to pin a cache regardless of the
     * process-global one.
     */
    void setCache(std::shared_ptr<ResultCache> c) { cache = std::move(c); }

    /** The cache run() will consult, or nullptr. */
    const std::shared_ptr<ResultCache> &resultCache() const
    {
        return cache;
    }

    /**
     * How run() computes one task's result; by default a task
     * simulates its config over its shape's shared decode.
     */
    using TaskRunner = std::function<SimResult(const RunTask &)>;

    /**
     * Replace the task computation, one call per task (empty
     * restores simulation). This is a deliberate
     * fault-injection seam: simulate() is pure and asserts on bad
     * input rather than throwing, so the exception-safety contract of
     * run() is only testable with a runner that throws on demand. The
     * runner is called from worker threads and must be thread-safe.
     */
    void setTaskRunner(TaskRunner fn) { runner = std::move(fn); }

    /**
     * Free all stored results (full per-interval traces — the bulk of
     * a campaign's memory) once they have been consumed. result(i) is
     * invalid for already-run tasks afterwards; enqueue()/run() keep
     * working for new tasks.
     */
    void releaseResults();

    /** Child RNG stream of task @p i (what task i may draw from). */
    Rng taskRng(std::size_t i) const { return base.split(i); }

  private:
    Rng base;
    std::vector<RunTask> tasks;
    std::vector<SimResult> results;
    std::vector<char> resolved; //!< per-task: result committed
    RunProgress progress; //!< optional worker-side completion hook
    CacheRunEvents events;
    std::shared_ptr<ResultCache> cache; //!< nullptr = caching off
    TaskRunner runner;        //!< empty = simulateDecoded()
    std::size_t completed = 0; //!< tasks below this all resolved
    std::size_t released = 0; //!< results below this index were freed
};

} // namespace wavedyn

#endif // WAVEDYN_EXEC_SCHEDULER_HH
