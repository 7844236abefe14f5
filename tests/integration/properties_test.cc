/**
 * @file
 * Cross-module invariants and property sweeps: conservation laws the
 * pipeline must satisfy on every benchmark and configuration, power
 * accounting identities, and trace reproducibility under different
 * interval chunkings.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "power/model.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "workload/stream.hh"

namespace wavedyn
{
namespace
{

/** Benchmark x machine parameterisation. */
using Combo = std::tuple<int, int>;

SimConfig
configVariant(int which)
{
    SimConfig cfg = SimConfig::baseline();
    switch (which) {
      case 0: // small machine
        cfg.fetchWidth = 2;
        cfg.iqSize = 32;
        cfg.lsqSize = 16;
        cfg.l2SizeKb = 256;
        cfg.l2Lat = 20;
        cfg.il1SizeKb = 8;
        cfg.dl1SizeKb = 8;
        cfg.dl1Lat = 4;
        break;
      case 1: // baseline
        break;
      case 2: // wide machine
        cfg.fetchWidth = 16;
        cfg.robSize = 160;
        cfg.iqSize = 128;
        cfg.lsqSize = 64;
        cfg.l2SizeKb = 4096;
        cfg.l2Lat = 8;
        cfg.il1SizeKb = 64;
        cfg.dl1SizeKb = 64;
        break;
      default:
        break;
    }
    return cfg;
}

class PipelineInvariants : public ::testing::TestWithParam<Combo>
{
  protected:
    const BenchmarkProfile &
    bench() const
    {
        return allBenchmarks()[static_cast<std::size_t>(
            std::get<0>(GetParam()))];
    }

    SimConfig
    config() const
    {
        return configVariant(std::get<1>(GetParam()));
    }
};

TEST_P(PipelineInvariants, ConservationOfInstructions)
{
    const std::vector<MicroOp> ops = decodeOps(
        InstructionStream(bench(), 6000), 6000 + fetchAhead(config()));
    Pipeline pipe(ops, config());
    pipe.runInstructions(6000);
    const auto &a = pipe.intervalActivity();
    // Everything committed was dispatched; everything dispatched was
    // fetched. (Fetch may run ahead into the fetch queue.)
    EXPECT_EQ(a.committed, 6000u);
    EXPECT_GE(a.dispatched, a.committed);
    EXPECT_GE(a.fetched, a.dispatched);
    // Every instruction issues exactly once before commit.
    std::uint64_t issued = a.issuedIntAlu + a.issuedIntMul +
                           a.issuedFpAlu + a.issuedFpMul + a.issuedMem +
                           a.issuedControl;
    EXPECT_GE(issued, a.committed);
    EXPECT_LE(issued, a.dispatched);
}

TEST_P(PipelineInvariants, OccupancyWithinCapacity)
{
    SimConfig cfg = config();
    const std::vector<MicroOp> ops = decodeOps(
        InstructionStream(bench(), 4000), 4000 + fetchAhead(cfg));
    Pipeline pipe(ops, cfg);
    pipe.runInstructions(4000);
    const auto &a = pipe.intervalActivity();
    ASSERT_GT(a.cycles, 0u);
    // Mean occupancies cannot exceed structure capacity.
    EXPECT_LE(a.iqOccupancySum, a.cycles * cfg.iqSize);
    EXPECT_LE(a.robOccupancySum, a.cycles * cfg.robSize);
    EXPECT_LE(a.lsqOccupancySum, a.cycles * cfg.lsqSize);
}

TEST_P(PipelineInvariants, MissesNeverExceedAccesses)
{
    const std::vector<MicroOp> ops = decodeOps(
        InstructionStream(bench(), 4000), 4000 + fetchAhead(config()));
    Pipeline pipe(ops, config());
    pipe.runInstructions(4000);
    const auto &a = pipe.intervalActivity();
    EXPECT_LE(a.il1Misses, a.il1Accesses);
    EXPECT_LE(a.dl1Misses, a.dl1Accesses);
    EXPECT_LE(a.l2Misses, a.l2Accesses);
    EXPECT_LE(a.itlbMisses, a.itlbAccesses);
    EXPECT_LE(a.dtlbMisses, a.dtlbAccesses);
    EXPECT_LE(a.bpredMispredicts, a.bpredLookups);
    // Memory traffic comes only from L2 misses.
    EXPECT_EQ(a.memAccesses, a.l2Misses);
}

TEST_P(PipelineInvariants, CyclesLowerBound)
{
    SimConfig cfg = config();
    const std::vector<MicroOp> ops = decodeOps(
        InstructionStream(bench(), 4000), 4000 + fetchAhead(cfg));
    Pipeline pipe(ops, cfg);
    pipe.runInstructions(4000);
    // Can't commit more than width per cycle.
    EXPECT_GE(pipe.now() * cfg.fetchWidth, 4000u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineInvariants,
    ::testing::Combine(::testing::Values(0, 3, 5, 8, 11), // bench index
                       ::testing::Values(0, 1, 2)));      // machine

TEST(TraceChunking, IntervalBoundariesDontChangeTotals)
{
    // Simulating N instructions in one interval or many must produce
    // identical cycle counts (the pipeline has no per-interval state
    // beyond statistics windows).
    const auto &bench = benchmarkByName("gap");
    auto one = simulate(bench, SimConfig::baseline(), 1, 4096);
    auto many = simulate(bench, SimConfig::baseline(), 16, 256);
    EXPECT_EQ(one.totalInstructions, many.totalInstructions);
    // Interval boundaries cap the commit stage mid-cycle, so a handful
    // of boundary cycles may differ; anything beyond 1% is a bug.
    double cyc_one = static_cast<double>(one.totalCycles);
    double cyc_many = static_cast<double>(many.totalCycles);
    EXPECT_NEAR(cyc_one, cyc_many, 0.01 * cyc_one);
    EXPECT_NEAR(one.aggregate(Domain::Cpi),
                many.aggregate(Domain::Cpi), 0.05);
}

TEST(PowerIdentity, WattsEqualsBreakdownSumOnRealActivity)
{
    const auto &bench = benchmarkByName("vortex");
    SimConfig cfg = SimConfig::baseline();
    const std::vector<MicroOp> ops = decodeOps(
        InstructionStream(bench, 4000), 4000 + fetchAhead(cfg));
    Pipeline pipe(ops, cfg);
    pipe.runInstructions(4000);
    PowerModel pm(cfg);
    const auto &a = pipe.intervalActivity();
    double total = 0.0;
    for (const auto &[k, v] : pm.breakdown(a)) {
        EXPECT_GE(v, 0.0) << k;
        total += v;
    }
    EXPECT_NEAR(total, pm.watts(a), 1e-9);
}

TEST(AvfIdentity, CombinedIsBitWeightedMean)
{
    SimConfig cfg = SimConfig::baseline();
    AvfSample s;
    s.iq = 0.4;
    s.rob = 0.2;
    s.lsq = 0.6;
    double expect = (0.4 * cfg.iqSize + 0.2 * cfg.robSize +
                     0.6 * cfg.lsqSize) /
                    static_cast<double>(cfg.iqSize + cfg.robSize +
                                        cfg.lsqSize);
    EXPECT_NEAR(s.combined(cfg), expect, 1e-12);
}

TEST(StreamDeterminism, SameProgramOnEveryMachine)
{
    // The committed instruction stream must not depend on the machine:
    // compare the op sequence consumed by two very different configs.
    const auto &bench = benchmarkByName("twolf");
    InstructionStream s1(bench, 8192), s2(bench, 8192);
    for (std::uint64_t i = 0; i < 8192; i += 17) {
        MicroOp a = s1.at(i);
        MicroOp b = s2.at(i);
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.effAddr, b.effAddr);
        ASSERT_EQ(a.branchTaken, b.branchTaken);
    }
}

TEST(WarmupIsolation, SamplingWindowsExcludeWarmup)
{
    // totalInstructions reflects only sampled intervals.
    auto r = simulate(benchmarkByName("eon"), SimConfig::baseline(), 8,
                      250);
    EXPECT_EQ(r.totalInstructions, 2000u);
    std::uint64_t sum = 0;
    for (const auto &s : r.intervals)
        sum += s.instructions;
    EXPECT_EQ(sum, 2000u);
}

} // anonymous namespace
} // namespace wavedyn
