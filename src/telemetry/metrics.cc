#include "telemetry/metrics.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>

#include "util/json.hh"

namespace wavedyn
{

namespace
{

constexpr int kKindCounter = 0;
constexpr int kKindHistogram = 1;

/** Slots a histogram occupies: count, sum, then one per bucket. */
constexpr std::uint32_t kHistogramWidth =
    2 + static_cast<std::uint32_t>(HistogramLayout::kBuckets);

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bitsDouble(std::uint64_t bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

} // namespace

std::uint64_t
HistogramLayout::upperBoundUs(std::size_t i)
{
    if (i + 1 >= kBuckets)
        return UINT64_MAX;
    return 1ull << i;
}

std::size_t
HistogramLayout::bucketOf(std::uint64_t micros)
{
    if (micros <= 1)
        return 0;
    // Smallest i with 2^i >= micros.
    std::size_t i = 64 - static_cast<std::size_t>(
                             __builtin_clzll(micros - 1));
    return std::min(i, kBuckets - 1);
}

std::uint64_t
MetricsSnapshot::counterOr(const std::string &name,
                           std::uint64_t fallback) const
{
    for (const auto &c : counters)
        if (c.first == name)
            return c.second;
    return fallback;
}

/**
 * One thread's accumulation array. Pre-sized so hot-path writes never
 * allocate; registration fails loudly when the capacity is exhausted
 * rather than silently dropping metrics.
 */
struct MetricsRegistry::Shard
{
    static constexpr std::uint32_t kSlots = 4096;

    Shard()
    {
        for (auto &s : slots)
            s.store(0, std::memory_order_relaxed);
    }

    std::array<std::atomic<std::uint64_t>, kSlots> slots;
};

struct MetricsRegistry::Metric
{
    std::string name;
    int kind = kKindCounter;
    std::uint32_t slot = 0;
};

struct MetricsRegistry::GaugeEntry
{
    std::string name;
    std::atomic<std::uint64_t> bits{doubleBits(0.0)};
};

MetricsRegistry::MetricsRegistry()
{
    // Process-unique id: the thread-local shard cache keys on it, so a
    // stale cache entry for a destroyed registry (tests build and drop
    // registries freely) can never alias a new instance at the same
    // address.
    static std::atomic<std::uint64_t> nextId{1};
    registryId = nextId.fetch_add(1, std::memory_order_relaxed);
}

MetricsRegistry::~MetricsRegistry() = default;

MetricId
MetricsRegistry::registerSlots(const std::string &name, int kind,
                               std::uint32_t width)
{
    std::lock_guard<std::mutex> lock(mu);
    for (const Metric &m : metrics) {
        if (m.name == name) {
            if (m.kind != kind)
                throw std::logic_error("metric '" + name +
                                       "' re-registered as a different "
                                       "kind");
            return MetricId{m.slot};
        }
    }
    if (nextSlot + width > Shard::kSlots)
        throw std::length_error("metrics registry slot capacity "
                                "exhausted registering '" +
                                name + "'");
    Metric m;
    m.name = name;
    m.kind = kind;
    m.slot = nextSlot;
    metrics.push_back(std::move(m));
    nextSlot += width;
    return MetricId{metrics.back().slot};
}

MetricId
MetricsRegistry::counter(const std::string &name)
{
    return registerSlots(name, kKindCounter, 1);
}

MetricId
MetricsRegistry::histogram(const std::string &name)
{
    return registerSlots(name, kKindHistogram, kHistogramWidth);
}

std::size_t
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < gauges_.size(); ++i)
        if (gauges_[i]->name == name)
            return i;
    auto entry = std::make_unique<GaugeEntry>();
    entry->name = name;
    gauges_.push_back(std::move(entry));
    return gauges_.size() - 1;
}

MetricsRegistry::Shard &
MetricsRegistry::localShard()
{
    // One cache per thread across all registries; entries for
    // destroyed registries go stale but are never matched again
    // (registry ids are never reused).
    thread_local std::vector<std::pair<std::uint64_t, Shard *>> cache;
    for (const auto &e : cache)
        if (e.first == registryId)
            return *e.second;
    std::lock_guard<std::mutex> lock(mu);
    shards.push_back(std::make_unique<Shard>());
    Shard *s = shards.back().get();
    cache.emplace_back(registryId, s);
    return *s;
}

void
MetricsRegistry::add(MetricId id, std::uint64_t delta)
{
    localShard().slots[id.slot].fetch_add(delta,
                                          std::memory_order_relaxed);
}

void
MetricsRegistry::observe(MetricId id, std::uint64_t micros)
{
    Shard &s = localShard();
    s.slots[id.slot].fetch_add(1, std::memory_order_relaxed);
    s.slots[id.slot + 1].fetch_add(micros, std::memory_order_relaxed);
    s.slots[id.slot + 2 + HistogramLayout::bucketOf(micros)].fetch_add(
        1, std::memory_order_relaxed);
}

void
MetricsRegistry::setGauge(std::size_t gaugeIndex, double value)
{
    // gauges_ only grows, and indices come from gauge(), so the read
    // outside the mutex is safe for any index already handed out.
    std::lock_guard<std::mutex> lock(mu);
    gauges_[gaugeIndex]->bits.store(doubleBits(value),
                                    std::memory_order_relaxed);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    MetricsSnapshot snap;
    for (const Metric &m : metrics) {
        if (m.kind == kKindCounter) {
            std::uint64_t total = 0;
            for (const auto &shard : shards)
                total += shard->slots[m.slot].load(
                    std::memory_order_relaxed);
            snap.counters.emplace_back(m.name, total);
        } else {
            MetricsSnapshot::Histogram h;
            h.name = m.name;
            for (const auto &shard : shards) {
                h.count += shard->slots[m.slot].load(
                    std::memory_order_relaxed);
                h.sumUs += shard->slots[m.slot + 1].load(
                    std::memory_order_relaxed);
                for (std::size_t b = 0; b < HistogramLayout::kBuckets;
                     ++b)
                    h.buckets[b] += shard->slots[m.slot + 2 + b].load(
                        std::memory_order_relaxed);
            }
            snap.histograms.push_back(std::move(h));
        }
    }
    for (const auto &g : gauges_)
        snap.gauges.emplace_back(
            g->name, bitsDouble(g->bits.load(std::memory_order_relaxed)));

    auto byFirst = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byFirst);
    std::sort(snap.gauges.begin(), snap.gauges.end(), byFirst);
    std::sort(snap.histograms.begin(), snap.histograms.end(),
              [](const auto &a, const auto &b) { return a.name < b.name; });
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &shard : shards)
        for (auto &s : shard->slots)
            s.store(0, std::memory_order_relaxed);
    for (const auto &g : gauges_)
        g->bits.store(doubleBits(0.0), std::memory_order_relaxed);
}

JsonValue
metricsToJson(const MetricsSnapshot &snap)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", "wavedyn-metrics-v1");

    JsonValue bounds = JsonValue::array();
    for (std::size_t i = 0; i + 1 < HistogramLayout::kBuckets; ++i)
        bounds.push(HistogramLayout::upperBoundUs(i));
    doc.set("bucket_bounds_us", std::move(bounds));

    JsonValue counters = JsonValue::object();
    for (const auto &c : snap.counters)
        counters.set(c.first, c.second);
    doc.set("counters", std::move(counters));

    JsonValue gauges = JsonValue::object();
    for (const auto &g : snap.gauges)
        gauges.set(g.first, g.second);
    doc.set("gauges", std::move(gauges));

    JsonValue histograms = JsonValue::object();
    for (const auto &h : snap.histograms) {
        JsonValue entry = JsonValue::object();
        entry.set("count", h.count);
        entry.set("sum_us", h.sumUs);
        JsonValue buckets = JsonValue::array();
        for (std::uint64_t b : h.buckets)
            buckets.push(b);
        entry.set("buckets", std::move(buckets));
        histograms.set(h.name, std::move(entry));
    }
    doc.set("histograms", std::move(histograms));
    return doc;
}

} // namespace wavedyn
