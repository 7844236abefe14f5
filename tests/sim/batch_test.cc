/**
 * @file
 * Bit-identity tests of the simulation driver. A deliberately naive
 * oracle below — one pipeline per run, idle-cycle fast-forward off,
 * so every cycle goes through the plain per-cycle loop — is the
 * reference: simulate() and every lane of simulateBatch(), at every
 * batch width, must return byte-for-byte the SimResult the oracle
 * returns for that lane's configuration. Byte-identity is checked
 * through the cache record encoding (encodeSimResult), which
 * serialises doubles by bit pattern — the strictest comparison the
 * repo has.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/store.hh"
#include "power/model.hh"
#include "sim/batch.hh"
#include "sim/pipeline.hh"
#include "sim/simulator.hh"
#include "telemetry/telemetry.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workload/shared_decode.hh"
#include "workload/stream.hh"

namespace wavedyn
{
namespace
{

constexpr std::size_t kSamples = 6;
constexpr std::size_t kPerInterval = 192;

/** laneConfig() repeats with this period (lcm of 6, 4 and 3). */
constexpr std::size_t kDistinctLanes = 12;

/** Byte-for-byte form of a SimResult: the cache record encoding. */
std::string
bytesOf(const SimResult &r)
{
    return encodeSimResult(r, "x");
}

/** A config that varies meaningfully with @p lane (ROB, widths). */
SimConfig
laneConfig(std::size_t lane)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.robSize = 32 + 16 * static_cast<unsigned>(lane % 6);
    cfg.fetchWidth = 2 + static_cast<unsigned>(lane % 4);
    cfg.iqSize = 48 + 8 * static_cast<unsigned>(lane % 3);
    return cfg;
}

/**
 * The reference driver: the driver's warmup (body / 8) and interval
 * loop over one pipeline with its own decode window, which it never
 * trims, and the idle-cycle fast-forward switched off.
 */
SimResult
oracleSimulate(const BenchmarkProfile &bench, const SimConfig &cfg,
               std::size_t numIntervals, std::size_t intervalInstrs,
               const DvmConfig &dvm)
{
    std::uint64_t body =
        static_cast<std::uint64_t>(numIntervals) * intervalInstrs;
    std::uint64_t warmup = body / 8;

    InstructionStream stream(bench, warmup + body);
    SharedOpWindow ops(stream);
    Pipeline pipe(ops, cfg, dvm);
    pipe.setIdleSkip(false);
    PowerModel power(cfg);

    if (warmup > 0) {
        pipe.runInstructions(warmup);
        pipe.resetInterval();
    }
    SimResult result;
    for (std::size_t i = 0; i < numIntervals; ++i) {
        pipe.resetInterval();
        std::uint64_t start = pipe.now();
        pipe.runInstructions(intervalInstrs);
        result.intervals.push_back(
            assembleIntervalSample(pipe, power, cfg, start));
    }
    result.totalCycles = pipe.now();
    result.totalInstructions = pipe.committed() - warmup;
    result.dvmStats = pipe.dvm().stats();
    result.dvmFinalWqRatio = pipe.dvm().wqRatio();
    EXPECT_EQ(pipe.idleSkippedCycles(), 0u);
    return result;
}

/** One generated profile per family, fixed seed. */
std::vector<BenchmarkProfile>
generatedProfiles()
{
    std::vector<BenchmarkProfile> out;
    for (WorkloadFamily f : allFamilies())
        out.push_back(ScenarioGenerator(f, 7).generate(0));
    return out;
}

/** simulate() and simulateBatch() at widths 1/2/7/64 vs the oracle. */
void
expectDriversMatchOracle(const BenchmarkProfile &bench,
                         const DvmConfig &dvm)
{
    const std::string tag =
        bench.name + (dvm.enabled ? " dvm=on" : " dvm=off");
    std::vector<std::string> oracle;
    for (std::size_t l = 0; l < kDistinctLanes; ++l) {
        oracle.push_back(bytesOf(oracleSimulate(
            bench, laneConfig(l), kSamples, kPerInterval, dvm)));
        EXPECT_TRUE(bytesOf(simulate(bench, laneConfig(l), kSamples,
                                     kPerInterval, dvm)) == oracle[l])
            << tag << " simulate() lane=" << l;
    }
    for (std::size_t width : {1u, 2u, 7u, 64u}) {
        std::vector<SimConfig> cfgs;
        for (std::size_t l = 0; l < width; ++l)
            cfgs.push_back(laneConfig(l));
        std::vector<SimResult> batched =
            simulateBatch(bench, cfgs, kSamples, kPerInterval, dvm);
        ASSERT_EQ(batched.size(), width);
        for (std::size_t l = 0; l < width; ++l)
            EXPECT_TRUE(bytesOf(batched[l]) ==
                        oracle[l % kDistinctLanes])
                << tag << " width=" << width << " lane=" << l;
    }
}

DvmConfig
dvmOn()
{
    DvmConfig dvm;
    dvm.enabled = true;
    return dvm;
}

TEST(SimulateBatch, MatchesOracleAcrossGeneratedFamilies)
{
    for (const BenchmarkProfile &bench : generatedProfiles()) {
        expectDriversMatchOracle(bench, DvmConfig{});
        expectDriversMatchOracle(bench, dvmOn());
    }
}

TEST(SimulateBatch, MatchesOracleOnPaperBenchmark)
{
    const BenchmarkProfile &gcc = benchmarkByName("gcc");
    expectDriversMatchOracle(gcc, DvmConfig{});
    expectDriversMatchOracle(gcc, dvmOn());
}

TEST(SimulateBatch, IdleSkipEngagesOnEveryFamily)
{
    // The oracle comparison is only meaningful if the production lanes
    // actually fast-forward: the driver's summed idle-skipped cycles
    // must be nonzero on every family.
    MetricsRegistry &reg = metricsRegistry();
    std::vector<SimConfig> cfgs;
    for (std::size_t l = 0; l < kDistinctLanes; ++l)
        cfgs.push_back(laneConfig(l));
    for (const BenchmarkProfile &bench : generatedProfiles()) {
        std::uint64_t before =
            reg.snapshot().counterOr("sim.idle_skipped_cycles");
        simulateBatch(bench, cfgs, kSamples, kPerInterval);
        EXPECT_GT(reg.snapshot().counterOr("sim.idle_skipped_cycles"),
                  before)
            << bench.name;
    }
}

TEST(SimulateBatch, PublishesSummedLaneCycles)
{
    MetricsRegistry &reg = metricsRegistry();
    const BenchmarkProfile &gcc = benchmarkByName("gcc");
    std::vector<SimConfig> cfgs = {laneConfig(0), laneConfig(5)};
    std::uint64_t before = reg.snapshot().counterOr("sim.cycles");
    std::vector<SimResult> rs =
        simulateBatch(gcc, cfgs, kSamples, kPerInterval);
    EXPECT_EQ(reg.snapshot().counterOr("sim.cycles") - before,
              rs[0].totalCycles + rs[1].totalCycles);
}

TEST(SimulateBatch, IdenticalConfigsProduceIdenticalLanes)
{
    const BenchmarkProfile &bench = benchmarkByName("gcc");
    std::vector<SimConfig> cfgs(3, SimConfig::baseline());
    std::vector<SimResult> rs = simulateBatch(bench, cfgs, 4, 160);
    ASSERT_EQ(rs.size(), 3u);
    EXPECT_TRUE(bytesOf(rs[0]) == bytesOf(rs[1]));
    EXPECT_TRUE(bytesOf(rs[0]) == bytesOf(rs[2]));
}

TEST(SimulateBatch, EmptyBatchReturnsNothing)
{
    EXPECT_TRUE(simulateBatch(benchmarkByName("gcc"),
                              std::vector<SimConfig>{}, 4, 160)
                    .empty());
}

TEST(SimulateBatch, GlobalWidthKnobRoundTrips)
{
    setGlobalBatchWidth(0); // unset
    EXPECT_EQ(globalBatchWidth(), kDefaultBatchWidth);
    setGlobalBatchWidth(5);
    EXPECT_EQ(globalBatchWidth(), 5u);
    setGlobalBatchWidth(1);
    EXPECT_EQ(globalBatchWidth(), 1u);
    setGlobalBatchWidth(0);
    EXPECT_EQ(globalBatchWidth(), kDefaultBatchWidth);
}

} // namespace
} // namespace wavedyn
