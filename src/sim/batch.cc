#include "sim/batch.hh"

#include <atomic>
#include <cassert>
#include <cstdint>

#include "power/model.hh"
#include "sim/pipeline.hh"
#include "telemetry/telemetry.hh"
#include "workload/shared_decode.hh"
#include "workload/stream.hh"

namespace
{

/** 0 = unset: kDefaultBatchWidth. */
std::atomic<unsigned> gBatchWidth{0};

/** The driver's counters, interned once. */
struct SimCounters
{
    wavedyn::MetricId cycles;            //!< lane cycles, warmup included
    wavedyn::MetricId idleSkippedCycles; //!< of which fast-forwarded
    wavedyn::MetricId issueScans;        //!< issue stages that scanned
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

} // namespace

namespace wavedyn
{

unsigned
globalBatchWidth()
{
    unsigned w = gBatchWidth.load(std::memory_order_relaxed);
    return w != 0 ? w : kDefaultBatchWidth;
}

void
setGlobalBatchWidth(unsigned width)
{
    gBatchWidth.store(width, std::memory_order_relaxed);
}

std::vector<SimResult>
simulateBatch(const BenchmarkProfile &bench,
              const std::vector<SimConfig> &configs,
              std::size_t numIntervals, std::size_t intervalInstrs,
              const DvmConfig &dvm)
{
    assert(numIntervals > 0 && intervalInstrs > 0);
    const std::size_t n = configs.size();
    std::vector<SimResult> out(n);
    if (n == 0)
        return out;

    // An eighth of the run warms caches, TLBs and predictor tables
    // before sampling begins (the paper fast-forwards to a SimPoint,
    // which arrives with warm state).
    std::uint64_t body =
        static_cast<std::uint64_t>(numIntervals) * intervalInstrs;
    std::uint64_t warmup = body / 8;

    InstructionStream stream(bench, warmup + body);
    SharedOpWindow ops(stream);

    // Lane-major (SoA) driver state: pipelines, power models, and the
    // per-interval bookkeeping all sit in parallel arrays indexed by
    // lane.
    std::vector<Pipeline> pipes;
    std::vector<PowerModel> powers;
    std::vector<std::uint64_t> startCycles(n, 0);
    pipes.reserve(n);
    powers.reserve(n);
    for (std::size_t l = 0; l < n; ++l) {
        pipes.emplace_back(ops, configs[l], dvm);
        powers.emplace_back(configs[l]);
        out[l].intervals.reserve(numIntervals);
    }

    // Interval-grained lockstep: every lane makes exactly the
    // sequence of runInstructions() calls a lone run would make, one
    // step at a time across all lanes, so the shared window's live
    // span stays bounded by one step plus the in-flight fetch skew. After each step the
    // window drops everything below the slowest lane.
    //
    // The fine interleave is deliberate, and measurably better than
    // coarser schedules (several intervals — or the whole run — per
    // lane before switching): within one step all N lanes read the
    // *same* few hundred decoded ops while they are L1-resident, so
    // the op-stream traffic is paid roughly once per step instead of
    // once per lane. A lane-major schedule keeps one lane's tables
    // hot but streams the full decoded body past every lane from L2+,
    // which costs far more than the lane-switch misses it avoids
    // (sweeping the quantum from 1 to all-intervals-per-switch showed
    // monotonically worse throughput at every coarser setting).
    auto step = [&](std::uint64_t count) {
        std::uint64_t minPos = ~0ull;
        for (std::size_t l = 0; l < n; ++l) {
            pipes[l].runInstructions(count);
            std::uint64_t pos = pipes[l].fetchPosition();
            if (pos < minPos)
                minPos = pos;
        }
        ops.trim(minPos);
    };

    if (warmup > 0) {
        step(warmup);
        for (std::size_t l = 0; l < n; ++l)
            pipes[l].resetInterval();
    }

    for (std::size_t i = 0; i < numIntervals; ++i) {
        for (std::size_t l = 0; l < n; ++l) {
            pipes[l].resetInterval();
            startCycles[l] = pipes[l].now();
        }
        step(intervalInstrs);
        for (std::size_t l = 0; l < n; ++l)
            out[l].intervals.push_back(
                assembleIntervalSample(pipes[l], powers[l], configs[l],
                                       startCycles[l]));
    }

    std::uint64_t cycles = 0, skipped = 0, scans = 0, idleScans = 0;
    for (std::size_t l = 0; l < n; ++l) {
        cycles += pipes[l].now();
        skipped += pipes[l].idleSkippedCycles();
        scans += pipes[l].issueScanCount();
        idleScans += pipes[l].idleIssueScanCount();
        out[l].totalCycles = pipes[l].now();
        out[l].totalInstructions = pipes[l].committed() - warmup;
        out[l].dvmStats = pipes[l].dvm().stats();
        out[l].dvmFinalWqRatio = pipes[l].dvm().wqRatio();
    }
    const SimCounters &sc = SimCounters::get();
    metricsRegistry().add(sc.cycles, cycles);
    metricsRegistry().add(sc.idleSkippedCycles, skipped);
    metricsRegistry().add(sc.issueScans, scans);
    metricsRegistry().add(sc.idleIssueScans, idleScans);
    return out;
}

} // namespace wavedyn
