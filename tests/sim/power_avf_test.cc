/**
 * @file
 * Tests for the Wattch-style power model and the AVF accounting.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "avf/estimator.hh"
#include "power/model.hh"
#include "util/rng.hh"

namespace wavedyn
{
namespace
{

ActivityCounts
typicalActivity(std::uint64_t cycles)
{
    ActivityCounts a;
    a.cycles = cycles;
    a.fetched = cycles * 3;
    a.dispatched = cycles * 3;
    a.issuedIntAlu = cycles * 2;
    a.issuedMem = cycles;
    a.committed = cycles * 3;
    a.il1Accesses = cycles / 2;
    a.dl1Accesses = cycles;
    a.dl1Misses = cycles / 20;
    a.l2Accesses = cycles / 20;
    a.l2Misses = cycles / 100;
    a.memAccesses = cycles / 100;
    a.itlbAccesses = cycles / 10;
    a.dtlbAccesses = cycles;
    a.bpredLookups = cycles / 3;
    a.btbLookups = cycles / 6;
    a.regReads = cycles * 4;
    a.regWrites = cycles * 2;
    a.iqOccupancySum = cycles * 40;
    a.robOccupancySum = cycles * 60;
    a.lsqOccupancySum = cycles * 20;
    return a;
}

TEST(PowerModel, IdleBurnsOnlyClockAndLeakage)
{
    PowerModel pm(SimConfig::baseline());
    ActivityCounts idle;
    idle.cycles = 1000;
    double w = pm.watts(idle);
    EXPECT_GT(w, 0.0);
    auto b = pm.breakdown(idle);
    EXPECT_NEAR(w, b["clock"] + b["leakage"], 1e-9);
}

TEST(PowerModel, ActivityIncreasesPower)
{
    PowerModel pm(SimConfig::baseline());
    ActivityCounts idle;
    idle.cycles = 1000;
    EXPECT_GT(pm.watts(typicalActivity(1000)), pm.watts(idle));
}

TEST(PowerModel, BreakdownSumsToTotal)
{
    PowerModel pm(SimConfig::baseline());
    auto a = typicalActivity(5000);
    double total = 0.0;
    for (const auto &[k, v] : pm.breakdown(a)) {
        EXPECT_GE(v, 0.0) << k;
        total += v;
    }
    EXPECT_NEAR(total, pm.watts(a), 1e-9);
}

TEST(PowerModel, PlausibleAbsoluteRange)
{
    // Figure 1 shows tens-of-watts averages; sanity check the scale.
    PowerModel pm(SimConfig::baseline());
    double w = pm.watts(typicalActivity(10000));
    EXPECT_GT(w, 15.0);
    EXPECT_LT(w, 200.0);
}

TEST(PowerModel, BiggerCachesLeakMore)
{
    SimConfig small = SimConfig::baseline();
    small.l2SizeKb = 256;
    SimConfig big = SimConfig::baseline();
    big.l2SizeKb = 4096;
    EXPECT_GT(PowerModel(big).leakageWatts(),
              PowerModel(small).leakageWatts());
}

TEST(PowerModel, WiderCoreHigherPeak)
{
    SimConfig narrow = SimConfig::baseline();
    narrow.fetchWidth = 2;
    SimConfig wide = SimConfig::baseline();
    wide.fetchWidth = 16;
    EXPECT_GT(PowerModel(wide).peakDynamicWatts(),
              PowerModel(narrow).peakDynamicWatts());
}

TEST(PowerModel, PerAccessEnergyGrowsWithCacheSize)
{
    // Same activity, bigger DL1 -> more dynamic power in dcache.
    SimConfig small = SimConfig::baseline();
    small.dl1SizeKb = 8;
    SimConfig big = SimConfig::baseline();
    big.dl1SizeKb = 64;
    auto a = typicalActivity(2000);
    EXPECT_GT(PowerModel(big).breakdown(a)["dcache"],
              PowerModel(small).breakdown(a)["dcache"]);
}

TEST(PowerModel, ZeroCyclesSafe)
{
    PowerModel pm(SimConfig::baseline());
    ActivityCounts a;
    EXPECT_DOUBLE_EQ(pm.watts(a), 0.0);
    EXPECT_TRUE(pm.breakdown(a).empty());
}

TEST(PowerModel, WattsIsTheKeyOrderSumOfTheBreakdownBitForBit)
{
    // watts() sums the terms without building the map; its bits must
    // equal a sum over breakdown() in key order, for any activity.
    auto bitsOf = [](double v) {
        std::uint64_t u;
        std::memcpy(&u, &v, sizeof u);
        return u;
    };
    SimConfig narrow = SimConfig::baseline();
    narrow.fetchWidth = 2;
    narrow.iqSize = 32;
    narrow.l2SizeKb = 256;
    SimConfig wide = SimConfig::baseline();
    wide.fetchWidth = 16;
    wide.robSize = 160;
    wide.dl1SizeKb = 8;
    Rng rng(2024);
    for (const SimConfig &cfg : {SimConfig::baseline(), narrow, wide}) {
        PowerModel pm(cfg);
        for (int trial = 0; trial < 200; ++trial) {
            ActivityCounts a;
            if (trial > 0) {
                // Cycles from 1 upwards, counters from 0 to far above
                // one event per cycle.
                a = typicalActivity(1 + rng.below(1u << (trial % 20)));
                a.cycles = 1 + rng.below(1u << (trial % 24));
                a.issuedIntMul = rng.below(a.cycles + 1);
                a.issuedFpAlu = rng.below(3 * a.cycles + 1);
                a.issuedFpMul = rng.below(a.cycles + 1);
                a.issuedControl = rng.below(2 * a.cycles + 1);
                a.il1Accesses = rng.below(4 * a.cycles + 1);
                a.memAccesses = rng.below(a.cycles + 1);
                a.regWrites = rng.below(8 * a.cycles + 1);
                a.lsqOccupancySum = rng.below(64 * a.cycles + 1);
            }
            const PowerBreakdown b = pm.breakdown(a);
            EXPECT_EQ(b.size(), a.cycles == 0 ? 0u : PowerModel::kTerms);
            double total = 0.0;
            for (const auto &[k, v] : b)
                total += v;
            EXPECT_EQ(bitsOf(pm.watts(a)), bitsOf(total))
                << "trial " << trial << " cycles " << a.cycles;
        }
    }
}

TEST(ActivityCounts, AddAccumulates)
{
    ActivityCounts a = typicalActivity(10);
    ActivityCounts b = typicalActivity(5);
    ActivityCounts sum = a;
    sum.add(b);
    EXPECT_EQ(sum.cycles, 15u);
    EXPECT_EQ(sum.dl1Accesses, a.dl1Accesses + b.dl1Accesses);
    EXPECT_EQ(sum.regReads, a.regReads + b.regReads);
}

TEST(AceWeights, WithinUnitInterval)
{
    AceWeights w;
    for (int c = 0; c < static_cast<int>(instrClassCount); ++c) {
        InstrClass cls = static_cast<InstrClass>(c);
        EXPECT_GE(w.iqWaiting(cls), 0.0);
        EXPECT_LE(w.iqWaiting(cls), 1.0);
        EXPECT_GE(w.robInFlight(cls), 0.0);
        EXPECT_LE(w.robInFlight(cls), 1.0);
        EXPECT_GE(w.robCompleted(cls), 0.0);
        EXPECT_LE(w.robCompleted(cls), 1.0);
        EXPECT_GE(w.lsq(cls), 0.0);
        EXPECT_LE(w.lsq(cls), 1.0);
    }
}

TEST(AceWeights, CompletedLessVulnerableThanInFlight)
{
    AceWeights w;
    for (InstrClass cls : {InstrClass::IntAlu, InstrClass::Load,
                           InstrClass::Store, InstrClass::FpMul})
        EXPECT_LT(w.robCompleted(cls), w.robInFlight(cls));
}

TEST(AceWeights, StoresMoreAceThanLoadsInLsq)
{
    AceWeights w;
    EXPECT_GT(w.lsq(InstrClass::Store), w.lsq(InstrClass::Load));
    EXPECT_DOUBLE_EQ(w.lsq(InstrClass::IntAlu), 0.0);
}

TEST(AvfAccumulator, EmptyWindowIsZero)
{
    AvfAccumulator acc(96);
    EXPECT_DOUBLE_EQ(acc.value(), 0.0);
}

TEST(AvfAccumulator, FullOccupancyIsOne)
{
    AvfAccumulator acc(10);
    acc.occupy(10.0);
    for (int i = 0; i < 100; ++i)
        acc.tick();
    EXPECT_DOUBLE_EQ(acc.value(), 1.0);
}

TEST(AvfAccumulator, HalfOccupancyIsHalf)
{
    AvfAccumulator acc(10);
    acc.occupy(5.0);
    for (int i = 0; i < 50; ++i)
        acc.tick();
    EXPECT_DOUBLE_EQ(acc.value(), 0.5);
}

TEST(AvfAccumulator, ReleaseLowersOccupancy)
{
    AvfAccumulator acc(10);
    acc.occupy(8.0);
    acc.tick();
    acc.release(6.0);
    acc.tick();
    // (8 + 2) / (10 * 2) = 0.5.
    EXPECT_DOUBLE_EQ(acc.value(), 0.5);
}

TEST(AvfAccumulator, ResetWindowKeepsOccupancy)
{
    AvfAccumulator acc(10);
    acc.occupy(4.0);
    acc.tick();
    acc.resetWindow();
    EXPECT_EQ(acc.windowCycles(), 0u);
    EXPECT_DOUBLE_EQ(acc.occupancy(), 4.0);
    acc.tick();
    EXPECT_DOUBLE_EQ(acc.value(), 0.4);
}

TEST(AvfAccumulator, ClampsNegativeDrift)
{
    AvfAccumulator acc(10);
    acc.occupy(1.0);
    acc.release(2.0); // over-release must clamp to zero
    EXPECT_DOUBLE_EQ(acc.occupancy(), 0.0);
    acc.tick();
    EXPECT_DOUBLE_EQ(acc.value(), 0.0);
}

} // anonymous namespace
} // namespace wavedyn
