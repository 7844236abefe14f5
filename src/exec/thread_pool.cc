#include "exec/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.hh"
#include "util/options.hh"

namespace wavedyn
{

namespace
{
thread_local bool t_on_worker = false;
/** runIndexed calls open on this thread; only depth 0 is timed. */
thread_local std::size_t t_depth = 0;
} // anonymous namespace

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0)
        threads = currentJobs();
    // Directly constructed pools get the same cap as the flag/env
    // sources; see maxJobs().
    threads = std::min(threads, maxJobs());
    workers.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    cv.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(task));
    }
    cv.notify_one();
}

void
ThreadPool::workerLoop()
{
    t_on_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        task();
    }
}

bool
ThreadPool::onWorkerThread()
{
    return t_on_worker;
}

ThreadPool &
ThreadPool::global()
{
    static std::mutex g_mu;
    static std::unique_ptr<ThreadPool> g_pool;
    std::lock_guard<std::mutex> lock(g_mu);
    std::size_t want = currentJobs();
    if (!g_pool || g_pool->size() != want)
        g_pool = std::make_unique<ThreadPool>(want);
    return *g_pool;
}

namespace detail
{

namespace
{

/**
 * Run fn(i), capturing its exception into @p error. At the outermost
 * level (@p timed) the run's wall time goes to the pool.task_us
 * histogram: the pool's busy time, from which the telemetry summary
 * derives utilisation. Nested sections run inline inside a timed
 * index, so timing them too would count that time twice.
 */
void
runOne(const std::function<void(std::size_t)> &fn, std::size_t i,
       bool timed, std::exception_ptr &error)
{
    static const MetricId taskUs =
        metricsRegistry().histogram("pool.task_us");
    const std::uint64_t start = timed ? telemetryNowUs() : 0;
    ++t_depth;
    try {
        fn(i);
    } catch (...) {
        error = std::current_exception();
    }
    --t_depth;
    if (timed)
        metricsRegistry().observe(taskUs, telemetryNowUs() - start);
}

/** Shared state of one runIndexed batch. */
struct Batch
{
    const std::function<void(std::size_t)> *fn = nullptr;
    std::size_t count = 0;
    bool timed = false;
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors;

    std::mutex mu;
    std::condition_variable done;
    std::size_t activeWorkers = 0;

    /** Pull indices until the range is exhausted. */
    void
    work()
    {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            runOne(*fn, i, timed, errors[i]);
        }
    }
};

/** Rethrow the lowest-index captured exception, if any. */
void
rethrowFirst(const std::vector<std::exception_ptr> &errors)
{
    for (const auto &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // anonymous namespace

void
runIndexed(ThreadPool &pool, std::size_t n,
           const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    // Serial path: a one-worker pool reproduces historical --jobs 1
    // behavior exactly, and nested sections run inline on the calling
    // worker so a saturated fixed-size pool cannot deadlock.
    const bool timed = t_depth == 0;
    if (pool.size() <= 1 || n == 1 || ThreadPool::onWorkerThread()) {
        std::vector<std::exception_ptr> errors(n);
        for (std::size_t i = 0; i < n; ++i)
            runOne(fn, i, timed, errors[i]);
        rethrowFirst(errors);
        return;
    }

    // The batch lives on this (blocking) caller's stack and workers
    // hold only a raw pointer: a worker's last touch of the batch is
    // its unlock of batch.mu, which happens-before the caller's wakeup
    // from done.wait — so the caller alone reads the error slots and
    // releases the captured exceptions, and no worker can race the
    // batch's destruction.
    Batch batch;
    batch.fn = &fn;
    batch.count = n;
    batch.timed = timed;
    batch.errors.resize(n);

    std::size_t helpers = std::min(pool.size(), n);
    batch.activeWorkers = helpers;
    Batch *bp = &batch;
    for (std::size_t w = 0; w < helpers; ++w) {
        pool.post([bp] {
            bp->work();
            std::lock_guard<std::mutex> lock(bp->mu);
            if (--bp->activeWorkers == 0)
                bp->done.notify_all();
        });
    }

    std::unique_lock<std::mutex> lock(batch.mu);
    batch.done.wait(lock, [&] { return batch.activeWorkers == 0; });
    lock.unlock();
    rethrowFirst(batch.errors);
}

} // namespace detail

} // namespace wavedyn
