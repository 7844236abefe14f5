#include "telemetry/telemetry.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/atomic_file.hh"
#include "util/json.hh"

namespace wavedyn
{

MetricsRegistry &
metricsRegistry()
{
    // Intentionally leaked: worker threads may outlive static
    // destruction order, and a function-local pointer keeps the
    // object reachable (no leak report) while sidestepping the
    // destruction-order fiasco entirely.
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

SpanTracer &
spanTracer()
{
    static SpanTracer *tracer = new SpanTracer();
    return *tracer;
}

void
setTracingEnabled(bool on)
{
    spanTracer().setEnabled(on);
}

bool
tracingEnabled()
{
    return spanTracer().enabled();
}

ScopedPhase::ScopedPhase(const std::string &name)
    : counter_(metricsRegistry().counter("phase." + name + "_us")),
      span_(spanTracer(), name, "phase"), start_(telemetryNowUs())
{
}

ScopedPhase::~ScopedPhase()
{
    std::uint64_t end = telemetryNowUs();
    metricsRegistry().add(counter_, end > start_ ? end - start_ : 0);
}

namespace
{

void
writeTextFile(const std::string &path, const std::string &text)
{
    // Atomic publication: a consumer (or a crash) must never observe
    // a half-written trace/metrics document.
    if (!writeFileAtomic(path, text + '\n'))
        throw std::runtime_error("cannot write '" + path + "'");
}

std::string
formatSeconds(std::uint64_t micros)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f s",
                  static_cast<double>(micros) / 1e6);
    return buf;
}

} // namespace

void
writeTraceFile(const std::string &path, std::uint64_t pid,
               const std::string &processName)
{
    writeTextFile(path,
                  writeJson(spanTracer().toJson(pid, processName)));
}

void
writeMetricsFile(const std::string &path)
{
    writeTextFile(path,
                  writeJson(metricsToJson(metricsRegistry().snapshot())));
}

std::string
renderTelemetrySummary(const MetricsSnapshot &snap, std::uint64_t wallUs,
                       std::size_t jobs)
{
    std::string out;
    char line[256];

    // Pool utilization: total per-run simulate time spread over
    // wall * jobs. Probe hits and phases outside simulate drag it
    // down honestly; clamp against rounding overshoot.
    double utilization = -1.0;
    for (const auto &h : snap.histograms) {
        if (h.name == "sim.run_us" && wallUs > 0 && jobs > 0) {
            utilization = static_cast<double>(h.sumUs) /
                          (static_cast<double>(wallUs) *
                           static_cast<double>(jobs));
            utilization = std::min(utilization, 1.0);
        }
    }
    if (utilization >= 0.0)
        std::snprintf(line, sizeof(line),
                      "-- telemetry: wall %s, jobs %zu, pool "
                      "utilization %.0f%%\n",
                      formatSeconds(wallUs).c_str(), jobs,
                      utilization * 100.0);
    else
        std::snprintf(line, sizeof(line),
                      "-- telemetry: wall %s, jobs %zu\n",
                      formatSeconds(wallUs).c_str(), jobs);
    out += line;

    // Top phases by accumulated wall-clock.
    std::vector<std::pair<std::string, std::uint64_t>> phases;
    for (const auto &c : snap.counters) {
        const std::string prefix = "phase.";
        const std::string suffix = "_us";
        if (c.first.size() > prefix.size() + suffix.size() &&
            c.first.compare(0, prefix.size(), prefix) == 0 &&
            c.first.compare(c.first.size() - suffix.size(),
                            suffix.size(), suffix) == 0)
            phases.emplace_back(
                c.first.substr(prefix.size(),
                               c.first.size() - prefix.size() -
                                   suffix.size()),
                c.second);
    }
    std::sort(phases.begin(), phases.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    if (!phases.empty()) {
        out += "-- telemetry: phases:";
        std::size_t shown = 0;
        for (const auto &p : phases) {
            if (shown++ == 4)
                break;
            double pct = wallUs > 0 ? 100.0 *
                                          static_cast<double>(p.second) /
                                          static_cast<double>(wallUs)
                                    : 0.0;
            std::snprintf(line, sizeof(line), "%s %s %s (%.0f%%)",
                          shown == 1 ? "" : ",", p.first.c_str(),
                          formatSeconds(p.second).c_str(), pct);
            out += line;
        }
        out += '\n';
    }

    std::uint64_t hits = snap.counterOr("cache.hits");
    std::uint64_t misses = snap.counterOr("cache.misses");
    if (hits + misses > 0) {
        std::snprintf(line, sizeof(line),
                      "-- telemetry: cache: %llu hits / %llu misses "
                      "(%.1f%% hit rate), %llu stores\n",
                      static_cast<unsigned long long>(hits),
                      static_cast<unsigned long long>(misses),
                      100.0 * static_cast<double>(hits) /
                          static_cast<double>(hits + misses),
                      static_cast<unsigned long long>(
                          snap.counterOr("cache.stores")));
        out += line;
    }
    return out;
}

} // namespace wavedyn
