/**
 * @file
 * Process-global telemetry session: one metrics registry and one span
 * tracer shared by every layer, plus the glue campaigns use — phase
 * scopes, file emission, and the `-- telemetry:` stderr summary.
 *
 * The no-participation rule (see metrics.hh / trace.hh) is enforced
 * here by construction: nothing in this header returns data into a
 * campaign result, and the only outputs are stderr lines and the side
 * files the user asked for with --trace-out / --metrics-out. Metrics
 * are always on (the cost is a few relaxed atomic adds per simulated
 * run); span recording is off unless a trace was requested.
 *
 * Simulation timings (exec/scheduler.hh): `sim.run_us` holds one
 * sample per computed run — its own simulation wall time on its
 * worker, cache store excluded — and `sim.decode_us` one sample per
 * run shape decoded, i.e. per distinct (benchmark, samples,
 * intervalInstrs) among the cache-missing tasks of one
 * RunScheduler::run().
 */

#ifndef WAVEDYN_TELEMETRY_TELEMETRY_HH
#define WAVEDYN_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <string>

#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace wavedyn
{

/** The process-global registry; metrics are always recorded. */
MetricsRegistry &metricsRegistry();

/** The process-global tracer; records only while enabled. */
SpanTracer &spanTracer();

/** Enable/query span recording (set when --trace-out/WAVEDYN_TRACE
 *  asks for a trace). */
void setTracingEnabled(bool on);
bool tracingEnabled();

/**
 * Phase scope: records a span (cat "phase") on the tracer and adds
 * the elapsed microseconds to the `phase.<name>_us` counter — the
 * counter feeds the summary's top-phases line even when tracing is
 * off. Phase names are a small stable set (plan, simulate, assemble,
 * train, sweep, refine, merge, ...), so the per-name counter intern
 * stays bounded.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(const std::string &name);
    ~ScopedPhase();

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    MetricId counter_;
    ScopedSpan span_;
    std::uint64_t start_;
};

/** Write the global tracer's events as a Chrome trace document.
 *  Throws std::runtime_error when the file cannot be written. */
void writeTraceFile(const std::string &path, std::uint64_t pid,
                    const std::string &processName);

/** Write the global registry's snapshot as wavedyn-metrics-v1 JSON. */
void writeMetricsFile(const std::string &path);

/**
 * Render the `-- telemetry:` stderr summary from a snapshot: top
 * phases by wall-clock, pool utilization (the pool.task_us busy time
 * over wall * jobs, clamped to 100%), the sweep's split of worker time
 * between prediction (sweep.predict_us), scoring (sweep.score_us) and,
 * when a sweep recorded it, the chunk filter (sweep.filter_us: one
 * sample per sweep chunk, covering its non-dominated filter and the
 * flat rows kept for the survivors), the simulator's cycle loop
 * when any run was simulated (sim.cycles, the idle-skipped share,
 * sim.issue_scans with the share of idle scans, and the summed
 * sim.run_us; sim/batch.hh), and the cache's hits, misses, stores and
 * probe time.
 *
 * The score share names the variant of the score kernels (util/simd.hh)
 * when the sweep.score_avx2 gauge is set — "avx2" for 1, "baseline"
 * for 0; every sweep's evaluator sets it (core/predictor.hh). The
 * cache line ends with the summed cache.probe_us, the scheduler's
 * probe phases (keys and record reads on the pool, commits in task
 * order), when any probe ran.
 * Returns complete lines, each starting with "-- ".
 */
std::string renderTelemetrySummary(const MetricsSnapshot &snap,
                                   std::uint64_t wallUs,
                                   std::size_t jobs);

} // namespace wavedyn

#endif // WAVEDYN_TELEMETRY_TELEMETRY_HH
