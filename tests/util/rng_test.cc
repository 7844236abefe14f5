/**
 * @file
 * Tests for the deterministic RNGs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/rng.hh"

namespace wavedyn
{
namespace
{

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, ZeroSeedIsUsable)
{
    Rng r(0);
    EXPECT_NE(r.next(), r.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double acc = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        acc += r.uniform();
    EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform(-4.0, 9.0);
        ASSERT_GE(u, -4.0);
        ASSERT_LT(u, 9.0);
    }
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng r(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.below(7));
    EXPECT_EQ(seen.size(), 7u);
    EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v = r.range(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    const int n = 100000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        double g = r.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianShifted)
{
    Rng r(17);
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += r.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(21);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng r(23);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (r.chance(0.25))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(29);
    std::vector<std::size_t> v = {0, 1, 2, 3, 4, 5, 6, 7};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleActuallyPermutes)
{
    Rng r(31);
    std::vector<std::size_t> v(50);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = i;
    auto orig = v;
    r.shuffle(v);
    EXPECT_NE(v, orig); // astronomically unlikely to be identity
}

TEST(Rng, GeometricCapped)
{
    Rng r(37);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(r.geometric(0.001, 10), 10u);
}

TEST(Rng, GeometricDegenerateProbabilities)
{
    Rng r(41);
    EXPECT_EQ(r.geometric(1.0, 100), 0u);
    EXPECT_EQ(r.geometric(0.0, 100), 100u);
}

TEST(Rng, GeometricMeanRoughlyMatches)
{
    Rng r(43);
    const int n = 50000;
    double acc = 0.0;
    for (int i = 0; i < n; ++i)
        acc += static_cast<double>(r.geometric(0.2, 1000));
    // Mean of geometric (failures before success) = (1-p)/p = 4.
    EXPECT_NEAR(acc / n, 4.0, 0.15);
}

TEST(RngSplit, DeterministicPerIndex)
{
    Rng base(42);
    Rng a = base.split(5), b = base.split(5);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngSplit, DoesNotAdvanceParent)
{
    Rng a(42), b(42);
    (void)a.split(0);
    (void)a.split(1);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngSplit, ChildrenAreIndependent)
{
    Rng base(42);
    Rng a = base.split(0), b = base.split(1);
    int same = 0;
    for (int i = 0; i < 256; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(RngSplit, ChildDiffersFromParentStream)
{
    Rng base(42);
    Rng child = base.split(0);
    int same = 0;
    for (int i = 0; i < 256; ++i)
        if (base.next() == child.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(RngSplit, DependsOnParentState)
{
    Rng a(42), b(42);
    b.next(); // advance one stream only
    Rng ca = a.split(7), cb = b.split(7);
    EXPECT_NE(ca.next(), cb.next());
}

TEST(CounterRng, PureFunctionOfCounter)
{
    CounterRng c(99);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(c.at(i), c.at(i));
}

TEST(CounterRng, DifferentKeysDiffer)
{
    CounterRng a(1), b(2);
    int same = 0;
    for (std::uint64_t i = 0; i < 256; ++i)
        if (a.at(i) == b.at(i))
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(CounterRng, OrderIndependent)
{
    CounterRng c(7);
    std::uint64_t fwd[16], bwd[16];
    for (int i = 0; i < 16; ++i)
        fwd[i] = c.at(static_cast<std::uint64_t>(i));
    for (int i = 15; i >= 0; --i)
        bwd[i] = c.at(static_cast<std::uint64_t>(i));
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(fwd[i], bwd[i]);
}

TEST(CounterRng, UniformAtBounds)
{
    CounterRng c(3);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        double u = c.uniformAt(i);
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(CounterRng, BelowAtRange)
{
    CounterRng c(5);
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(c.belowAt(i, 5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(CounterRng, AdjacentCountersUncorrelated)
{
    CounterRng c(123);
    // Successive uniforms should not be monotone or clustered; crude
    // check on the lag-1 correlation.
    const int n = 20000;
    double sx = 0, sy = 0, sxy = 0, sxx = 0, syy = 0;
    for (int i = 0; i < n; ++i) {
        double x = c.uniformAt(static_cast<std::uint64_t>(i));
        double y = c.uniformAt(static_cast<std::uint64_t>(i + 1));
        sx += x;
        sy += y;
        sxy += x * y;
        sxx += x * x;
        syy += y * y;
    }
    double cov = sxy / n - (sx / n) * (sy / n);
    double vx = sxx / n - (sx / n) * (sx / n);
    double vy = syy / n - (sy / n) * (sy / n);
    double corr = cov / std::sqrt(vx * vy);
    EXPECT_NEAR(corr, 0.0, 0.03);
}

TEST(HashCombine, OrderMatters)
{
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(SplitMix, KnownToDiffuse)
{
    // Single-bit input changes should flip roughly half the output bits.
    std::uint64_t a = splitmix64(0);
    std::uint64_t b = splitmix64(1);
    int flipped = __builtin_popcountll(a ^ b);
    EXPECT_GT(flipped, 16);
    EXPECT_LT(flipped, 48);
}

} // anonymous namespace
} // namespace wavedyn
