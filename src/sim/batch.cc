#include "sim/batch.hh"

#include <algorithm>
#include <cassert>

#include "power/model.hh"
#include "sim/pipeline.hh"
#include "telemetry/telemetry.hh"
#include "workload/stream.hh"

namespace
{

/** The driver's counters, interned once. */
struct SimCounters
{
    wavedyn::MetricId cycles;            //!< run cycles, warmup included
    wavedyn::MetricId idleSkippedCycles; //!< of which fast-forwarded
    wavedyn::MetricId issueScans;        //!< walks of the ready bits
    wavedyn::MetricId idleIssueScans;    //!< of which found none ready

    static const SimCounters &
    get()
    {
        static const SimCounters c = [] {
            wavedyn::MetricsRegistry &reg = wavedyn::metricsRegistry();
            SimCounters s;
            s.cycles = reg.counter("sim.cycles");
            s.idleSkippedCycles = reg.counter("sim.idle_skipped_cycles");
            s.issueScans = reg.counter("sim.issue_scans");
            s.idleIssueScans = reg.counter("sim.issue_idle_scans");
            return s;
        }();
        return c;
    }
};

/**
 * An eighth of the run warms caches, TLBs and predictor tables before
 * sampling begins (the paper fast-forwards to a SimPoint, which
 * arrives with warm state).
 */
std::uint64_t
warmupOf(std::uint64_t body)
{
    return body / 8;
}

} // namespace

namespace wavedyn
{

unsigned
globalBatchWidth()
{
    return 1;
}

void
setGlobalBatchWidth(unsigned)
{
}

std::uint64_t
fetchAhead(const SimConfig &cfg)
{
    return std::uint64_t{cfg.robSize} + 2 * std::uint64_t{cfg.fetchWidth};
}

std::vector<MicroOp>
decodeRunShape(const BenchmarkProfile &bench, std::size_t numIntervals,
               std::size_t intervalInstrs, std::uint64_t ahead)
{
    std::uint64_t body =
        static_cast<std::uint64_t>(numIntervals) * intervalInstrs;
    std::uint64_t run = warmupOf(body) + body;
    return decodeOps(InstructionStream(bench, run), run + ahead);
}

SimResult
simulateDecoded(const std::vector<MicroOp> &ops, const SimConfig &cfg,
                std::size_t numIntervals, std::size_t intervalInstrs,
                const DvmConfig &dvm)
{
    assert(numIntervals > 0 && intervalInstrs > 0);
    std::uint64_t body =
        static_cast<std::uint64_t>(numIntervals) * intervalInstrs;
    std::uint64_t warmup = warmupOf(body);
    assert(ops.size() >= warmup + body + fetchAhead(cfg));

    Pipeline pipe(ops, cfg, dvm);
    PowerModel power(cfg);
    SimResult out;
    out.intervals.reserve(numIntervals);

    // Exactly one runInstructions() call for the warmup and one per
    // interval — never a finer quantum: doCommit() caps commits at the
    // call target, so an extra boundary would change machine state.
    if (warmup > 0) {
        pipe.runInstructions(warmup);
        pipe.resetInterval();
    }
    for (std::size_t i = 0; i < numIntervals; ++i) {
        pipe.resetInterval();
        std::uint64_t start = pipe.now();
        pipe.runInstructions(intervalInstrs);
        out.intervals.push_back(
            assembleIntervalSample(pipe, power, cfg, start));
    }
    out.totalCycles = pipe.now();
    out.totalInstructions = pipe.committed() - warmup;
    out.dvmStats = pipe.dvm().stats();
    out.dvmFinalWqRatio = pipe.dvm().wqRatio();

    const SimCounters &sc = SimCounters::get();
    MetricsRegistry &reg = metricsRegistry();
    reg.add(sc.cycles, pipe.now());
    reg.add(sc.idleSkippedCycles, pipe.idleSkippedCycles());
    reg.add(sc.issueScans, pipe.issueScanCount());
    reg.add(sc.idleIssueScans, pipe.idleIssueScanCount());
    return out;
}

std::vector<SimResult>
simulateBatch(const BenchmarkProfile &bench,
              const std::vector<SimConfig> &configs,
              std::size_t numIntervals, std::size_t intervalInstrs,
              const DvmConfig &dvm)
{
    std::vector<SimResult> out;
    if (configs.empty())
        return out;
    std::uint64_t ahead = 0;
    for (const SimConfig &cfg : configs)
        ahead = std::max(ahead, fetchAhead(cfg));
    const std::vector<MicroOp> ops =
        decodeRunShape(bench, numIntervals, intervalInstrs, ahead);
    out.reserve(configs.size());
    for (const SimConfig &cfg : configs)
        out.push_back(
            simulateDecoded(ops, cfg, numIntervals, intervalInstrs, dvm));
    return out;
}

} // namespace wavedyn
