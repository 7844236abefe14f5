/**
 * @file
 * Parallel execution primitives for the experiment engine.
 *
 * The paper's protocol — simulate every (configuration x benchmark)
 * run once, then train one predictor per (benchmark x domain) — is
 * embarrassingly parallel. This layer provides the shared machinery:
 *
 *  - ThreadPool: a fixed-size pool (no work stealing; a single shared
 *    queue is plenty at millisecond task granularity).
 *  - parallelFor / parallelMap: blocking index-space helpers with
 *    deterministic, index-ordered results and deterministic exception
 *    propagation (the lowest-index exception is rethrown).
 *
 * Determinism contract: running any helper on a pool of N workers
 * produces bit-identical results for every N, including the inline
 * serial path used when jobs == 1. All outputs are indexed by task,
 * never appended in completion order.
 *
 * Nesting: helpers called from inside a pool worker run their loop
 * inline on that worker instead of re-entering the pool, so nested
 * parallel sections cannot deadlock a fixed-size pool.
 */

#ifndef WAVEDYN_EXEC_THREAD_POOL_HH
#define WAVEDYN_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wavedyn
{

/**
 * Fixed-size thread pool with one shared FIFO task queue.
 *
 * Construction spawns the workers; destruction drains the queue and
 * joins them. A pool is reusable for any number of batches.
 */
class ThreadPool
{
  public:
    /** Spawn @p threads workers; 0 means currentJobs(). */
    explicit ThreadPool(std::size_t threads = 0);

    /** Joins all workers after finishing queued tasks. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t size() const { return workers.size(); }

    /** Enqueue a fire-and-forget task. */
    void post(std::function<void()> task);

    /** True when called from one of this process's pool workers. */
    static bool onWorkerThread();

    /**
     * Process-wide pool for experiment orchestration, sized by
     * currentJobs(). Rebuilt if the jobs setting changed since the
     * last call — which destroys the previously returned pool, so
     * global() and setJobs() must only be used from a single
     * orchestration thread (the internal lock makes the lookup safe,
     * but cannot protect a reference another thread still holds).
     * Worker-side code never needs this: helpers called from workers
     * run inline.
     */
    static ThreadPool &global();

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex mu;
    std::condition_variable cv;
    bool stopping = false;
};

namespace detail
{

/**
 * Dispatch fn(0..n-1) over the pool and block until done. Exceptions
 * are captured per index; the lowest-index one is rethrown after all
 * indices ran. Runs inline when the pool has one worker or the caller
 * is itself a pool worker.
 */
void runIndexed(ThreadPool &pool, std::size_t n,
                const std::function<void(std::size_t)> &fn);

} // namespace detail

/** Run fn(i) for i in [0, n) in parallel; blocks until complete. */
template <typename Fn>
void
parallelFor(ThreadPool &pool, std::size_t n, Fn &&fn)
{
    detail::runIndexed(pool, n, std::function<void(std::size_t)>(fn));
}

/**
 * Map i -> fn(i) for i in [0, n); the result vector is index-ordered
 * regardless of the order tasks finish in.
 */
template <typename Fn>
auto
parallelMap(ThreadPool &pool, std::size_t n, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{}))>
{
    std::vector<decltype(fn(std::size_t{}))> out(n);
    detail::runIndexed(pool, n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

/**
 * Chunked streaming over a large index space: split [0, n) into
 * contiguous chunks of @p chunk indices and run fn(chunkIndex, begin,
 * end) per chunk in parallel. The workhorse of design-space sweeps,
 * where n is 10^5-10^6 and per-index dispatch overhead (and
 * per-index result storage) would dominate: a worker materialises one
 * chunk at a time, reduces it (e.g. to a local Pareto front), and
 * stores the reduction by chunk index — deterministic for any worker
 * count like every other helper here.
 */
template <typename Fn>
void
parallelChunks(ThreadPool &pool, std::size_t n, std::size_t chunk,
               Fn &&fn)
{
    if (n == 0)
        return;
    if (chunk == 0)
        chunk = 1;
    std::size_t chunks = (n + chunk - 1) / chunk;
    detail::runIndexed(pool, chunks, [&](std::size_t c) {
        std::size_t begin = c * chunk;
        std::size_t end = begin + chunk < n ? begin + chunk : n;
        fn(c, begin, end);
    });
}

} // namespace wavedyn

#endif // WAVEDYN_EXEC_THREAD_POOL_HH
