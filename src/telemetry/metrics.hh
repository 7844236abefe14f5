/**
 * @file
 * Lock-cheap metrics registry: named counters, gauges and fixed-bucket
 * duration histograms with thread-local sharded accumulation.
 *
 * Design notes — the no-participation rule
 * ----------------------------------------
 * Telemetry observes a campaign; it never participates in one. Nothing
 * in this registry may influence scheduling order, results, or any
 * byte of a stdout report:
 *
 *  - the hot-path write (`add`/`observe`) touches only a pre-sized
 *    per-thread array of relaxed atomics — no locks, no allocation, no
 *    I/O, no cross-thread ordering that could perturb the pool;
 *  - snapshot() merges shards by summation, which is commutative, so
 *    the merged values are identical no matter how work was spread
 *    across threads — counters and histogram counts are jobs-invariant
 *    by construction (durations of course are not);
 *  - gauges are last-writer-wins doubles set from orchestration code
 *    only, and are excluded from determinism guarantees.
 *
 * A registry hands out integer MetricIds at registration (under a
 * mutex — registration is cold); writers then index straight into
 * their thread's slot array. Registration interns by name: asking for
 * the same (name, kind) twice returns the same id, so call sites can
 * cache ids in function-local statics.
 */

#ifndef WAVEDYN_TELEMETRY_METRICS_HH
#define WAVEDYN_TELEMETRY_METRICS_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wavedyn
{

class JsonValue;

/** Handle to a registered metric; cheap to copy, index-like. */
struct MetricId
{
    std::uint32_t slot = 0; //!< first slot in the per-thread array
};

/**
 * Fixed histogram bucket layout: power-of-two microsecond upper
 * bounds 1us, 2us, 4us, ... 2^24 us (~16.8 s), plus one overflow
 * bucket. Fixed at compile time so shards are plain arrays and merge
 * is a blind slot-wise sum.
 */
struct HistogramLayout
{
    static constexpr std::size_t kBuckets = 26; //!< 25 bounded + overflow
    /** Upper bound (inclusive, microseconds) of bucket i; the last
     *  bucket is unbounded. */
    static std::uint64_t upperBoundUs(std::size_t i);
    /** Bucket index for a microsecond observation. */
    static std::size_t bucketOf(std::uint64_t micros);
};

/** Point-in-time merged view of a registry; plain data, sorted by
 *  name within each kind so rendering is deterministic. */
struct MetricsSnapshot
{
    struct Histogram
    {
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t sumUs = 0;
        std::array<std::uint64_t, HistogramLayout::kBuckets> buckets{};
    };

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<Histogram> histograms;

    /** Counter value by name, or `fallback` when absent. */
    std::uint64_t counterOr(const std::string &name,
                            std::uint64_t fallback = 0) const;
};

class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    // -- registration (mutex-guarded, interning; cold path). Throws
    //    std::length_error when the fixed slot capacity is exhausted
    //    and std::logic_error when a name is re-registered as a
    //    different kind.
    MetricId counter(const std::string &name);
    MetricId histogram(const std::string &name);

    /** Gauges live on the registry itself (not sharded): set is rare
     *  and last-writer-wins. Returns an index into the gauge table. */
    std::size_t gauge(const std::string &name);

    // -- hot-path writes (lock-free after first use on a thread)
    void add(MetricId id, std::uint64_t delta);
    void observe(MetricId id, std::uint64_t micros);
    void setGauge(std::size_t gaugeIndex, double value);

    /**
     * Merge every thread shard into one deterministic view. Safe to
     * call concurrently with writers (relaxed loads; a racing add may
     * or may not be included — campaigns snapshot after the pool has
     * joined, where counts are exact).
     */
    MetricsSnapshot snapshot() const;

    /**
     * Zero every slot and gauge, keeping registrations. Callers must
     * quiesce writers first; used by tests and benches that reuse the
     * process-global registry across measured sections.
     */
    void reset();

  private:
    struct Shard;
    struct Metric;
    struct GaugeEntry;

    Shard &localShard();
    MetricId registerSlots(const std::string &name, int kind,
                           std::uint32_t width);

    mutable std::mutex mu;
    std::vector<Metric> metrics;                //!< under mu
    std::vector<std::unique_ptr<Shard>> shards; //!< under mu (list only)
    std::vector<std::unique_ptr<GaugeEntry>>
        gauges_; //!< names under mu; values atomic (bit-cast doubles)
    std::uint32_t nextSlot = 0;
    std::uint64_t registryId; //!< process-unique, keys the TLS cache
};

/** Render a snapshot as the `wavedyn-metrics-v1` JSON document. */
JsonValue metricsToJson(const MetricsSnapshot &snap);

} // namespace wavedyn

#endif // WAVEDYN_TELEMETRY_METRICS_HH
