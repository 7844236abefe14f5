/**
 * @file
 * Span tracer emitting Chrome trace-event JSON (chrome://tracing and
 * Perfetto both load it).
 *
 * Design notes — the no-participation rule
 * ----------------------------------------
 * Like the metrics registry, the tracer observes and never
 * participates: recording a span appends to a per-thread buffer that
 * only its owner thread writes (readers collect buffers after the
 * pool has joined, so there is no cross-thread synchronization on the
 * hot path and nothing that could reorder work). When tracing is
 * disabled — the default — every record call is a single relaxed
 * atomic load and a branch.
 *
 * Span *counts and names* are jobs-invariant: a campaign records one
 * "run" span per executed simulation, one span per phase, one instant
 * per cache probe outcome, no matter how many workers the pool has.
 * Timestamps and thread assignment of course are not, which is why
 * reports never include anything derived from a trace.
 *
 * Timestamps are steady-clock microseconds (CLOCK_MONOTONIC).
 */

#ifndef WAVEDYN_TELEMETRY_TRACE_HH
#define WAVEDYN_TELEMETRY_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wavedyn
{

class JsonValue;

/** Monotonic microseconds; the time base for every trace event. */
std::uint64_t telemetryNowUs();

/** One trace event; maps 1:1 onto a Chrome trace-event object. */
struct TraceEvent
{
    std::string name;
    std::string cat;
    char ph = 'X';         //!< 'X' complete, 'i' instant
    std::uint64_t ts = 0;  //!< start, microseconds
    std::uint64_t dur = 0; //!< duration ('X' only), microseconds
    std::uint32_t tid = 0;
    std::string argKey; //!< optional single "args" member
    std::string argVal;
};

class SpanTracer;

/** RAII span: records a complete event over its lifetime when the
 *  tracer is enabled, and is a no-op otherwise. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanTracer &tracer, std::string name, std::string cat);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach the single optional arg before the span closes. */
    void arg(std::string key, std::string value);

  private:
    SpanTracer *tracer_; //!< null when the tracer was disabled at open
    std::string name_;
    std::string cat_;
    std::string argKey_;
    std::string argVal_;
    std::uint64_t start_ = 0;
};

class SpanTracer
{
  public:
    SpanTracer();
    ~SpanTracer();

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Record an instant event (ph:"i") on the calling thread. */
    void instant(const std::string &name, const std::string &cat,
                 const std::string &argKey = std::string(),
                 const std::string &argVal = std::string());

    /**
     * Record a complete event with explicit timestamps — used where a
     * span is not a scope of the recording thread (the scheduler's
     * run spans, recorded when each run commits).
     */
    void complete(const std::string &name, const std::string &cat,
                  std::uint64_t ts, std::uint64_t dur,
                  const std::string &argKey = std::string(),
                  const std::string &argVal = std::string());

    /** Open a RAII span (no-op object when disabled). */
    ScopedSpan span(std::string name, std::string cat)
    {
        return ScopedSpan(*this, std::move(name), std::move(cat));
    }

    /**
     * Merged copy of every buffer, ordered by (tid, record order).
     * Only meaningful once recording threads have quiesced (after the
     * pool join); racing records may be missed but nothing tears.
     */
    std::vector<TraceEvent> events() const;

    /** Drop all recorded events, keeping thread buffers. */
    void clear();

    /**
     * Render as a Chrome trace-event document:
     * `{"traceEvents":[...]}` with process/thread metadata events and
     * spans sorted by (ts, tid) for stable diffs.
     */
    JsonValue toJson(std::uint64_t pid,
                     const std::string &processName) const;

  private:
    friend class ScopedSpan;
    struct ThreadBuf;

    ThreadBuf &localBuf();
    void record(TraceEvent ev);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu;
    std::vector<std::unique_ptr<ThreadBuf>> bufs; //!< under mu (list)
    std::uint32_t nextTid = 0;
    std::uint64_t tracerId; //!< process-unique, keys the TLS cache
};

/**
 * Validate a parsed trace document: required fields present, and
 * complete events on one (pid, tid) properly nest — a span that
 * starts inside another must also end inside it. Returns
 * human-readable problems; empty means valid.
 */
std::vector<std::string> validateTraceDoc(const JsonValue &doc);

} // namespace wavedyn

#endif // WAVEDYN_TELEMETRY_TRACE_HH
