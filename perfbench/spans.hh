/**
 * @file
 * In-memory span log of the traced run.
 *
 * The benchmark records spans around its own calls into each wavedyn
 * layer; nothing inside src/ is instrumented. A span has a name, the
 * layer it is charged to, the thread that ran it, its interval, and
 * the span that caused it. Work that a parallel section hands to pool
 * workers names the section as its parent explicitly, because a
 * worker's own span stack starts empty.
 *
 * Spans marked as probes measure a layer outside the replayed path
 * (for example scalar simulate() on runs the path simulated batched). They and everything under them are left out
 * of the path's wall-time attribution.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

/** The wavedyn modules a campaign crosses, in src/ directory names. */
enum class Layer
{
    Workload,
    Sim,
    Exec,
    Cache,
    Core,
    Wavelet,
    Mlmodel,
    Dse,
};

inline constexpr std::size_t kLayerCount = 8;

/** Directory name of a layer ("workload", "sim", ...). */
const char *layerName(Layer layer);

/** Monotonic nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span. */
struct Span
{
    std::string name;
    Layer layer = Layer::Core;
    int parent = -1;        //!< index of the causing span, -1 for a root
    int thread = 0;         //!< small per-log thread number, -1 = workers
    std::int64_t start = 0; //!< ns
    std::int64_t end = 0;   //!< ns
    bool probe = false;     //!< outside the replayed path

    double seconds() const { return static_cast<double>(end - start) * 1e-9; }
};

/** Per-layer wall time of the replayed path. */
struct Attribution
{
    double pathSeconds = 0.0; //!< root wall time minus probe sections
    std::array<double, kLayerCount> seconds{};
};

/** Thread-safe span log. */
class SpanLog
{
  public:
    /** Closes its span on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, int id) : log(&log), idx(id) {}
        ~Scope() { log->close(idx); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int id() const { return idx; }

      private:
        SpanLog *log;
        int idx;
    };

    /**
     * Open a span on the calling thread. Its parent is the innermost
     * open span of this thread, or @p crossParent when the thread has
     * none (a pool worker running part of a parallel section). A span
     * is a probe when asked or when its parent is one.
     */
    int open(const std::string &name, Layer layer, int crossParent = -1,
             bool probe = false);

    /** Close span @p id; must be the innermost open span of its thread. */
    void close(int id);

    /**
     * Record @p ns of work measured inside the open span @p parent as a
     * child span starting at the parent's start: for work timed by the
     * code under test rather than by a span here. The work ran on the
     * parent's thread, or, @p onWorkers, on pool workers in parallel
     * with it.
     */
    void addTime(int parent, const std::string &name, Layer layer,
                 std::int64_t ns, bool onWorkers);

    /** Number of pool workers sharing a parallel section's wall time. */
    void setJobs(std::size_t jobs) { workers = jobs; }

    /**
     * Wall-time attribution of the non-probe spans under @p root: a
     * span's self time goes to its layer; the wall time of a parallel
     * section is split between the layers its workers were busy in
     * (busy time divided by the worker count) and the section's own
     * layer (the remainder: dispatch and idle workers).
     */
    Attribution attribute(int root) const;

    /** Total duration of every span named @p name (all threads). */
    double total(const std::string &name) const;

  private:
    int threadNumber();
    std::vector<Span> spans() const; //!< snapshot

    mutable std::mutex mu;
    std::vector<Span> log;
    std::map<std::thread::id, int> threadIds;
    std::map<int, std::vector<int>> stacks; //!< open spans per thread
    std::size_t workers = 1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
