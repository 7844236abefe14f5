/**
 * @file
 * Tests for the paper-convention Haar transform, including the paper's
 * Figure 2 worked example verified digit for digit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "util/rng.hh"
#include "wavelet/haar.hh"

namespace wavedyn
{
namespace
{

TEST(IsPowerOfTwo, Basics)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(128));
    EXPECT_FALSE(isPowerOfTwo(129));
}

TEST(HaarForward, PaperFigure2Example)
{
    // {3,4,20,25,15,5,20,3} -> 11.875 | 1.125 | -9.5,-0.75 |
    //                          -0.5,-2.5,5,8.5
    std::vector<double> data = {3, 4, 20, 25, 15, 5, 20, 3};
    auto c = haarForward(data);
    ASSERT_EQ(c.size(), 8u);
    EXPECT_DOUBLE_EQ(c[0], 11.875);
    EXPECT_DOUBLE_EQ(c[1], 1.125);
    EXPECT_DOUBLE_EQ(c[2], -9.5);
    EXPECT_DOUBLE_EQ(c[3], -0.75);
    EXPECT_DOUBLE_EQ(c[4], -0.5);
    EXPECT_DOUBLE_EQ(c[5], -2.5);
    EXPECT_DOUBLE_EQ(c[6], 5.0);
    EXPECT_DOUBLE_EQ(c[7], 8.5);
}

TEST(HaarForward, PaperIntermediateLevel)
{
    // The paper reconstructs {13, 10.75} = {11.875+1.125, 11.875-1.125}.
    std::vector<double> data = {3, 4, 20, 25, 15, 5, 20, 3};
    auto c = haarForward(data);
    EXPECT_DOUBLE_EQ(c[0] + c[1], 13.0);
    EXPECT_DOUBLE_EQ(c[0] - c[1], 10.75);
}

TEST(HaarForward, FirstCoefficientIsMean)
{
    std::vector<double> data = {1, 2, 3, 4, 5, 6, 7, 8};
    auto c = haarForward(data);
    EXPECT_DOUBLE_EQ(c[0], 4.5);
}

TEST(HaarForward, ConstantSignalHasOnlyAverage)
{
    std::vector<double> data(16, 3.25);
    auto c = haarForward(data);
    EXPECT_DOUBLE_EQ(c[0], 3.25);
    for (std::size_t i = 1; i < c.size(); ++i)
        EXPECT_DOUBLE_EQ(c[i], 0.0);
}

TEST(HaarForward, SingleElement)
{
    auto c = haarForward({5.0});
    ASSERT_EQ(c.size(), 1u);
    EXPECT_DOUBLE_EQ(c[0], 5.0);
}

TEST(HaarForward, LinearInInput)
{
    Rng rng(1);
    std::vector<double> a(32), b(32), sum(32);
    for (std::size_t i = 0; i < 32; ++i) {
        a[i] = rng.gaussian();
        b[i] = rng.gaussian();
        sum[i] = 2.0 * a[i] + 3.0 * b[i];
    }
    auto ca = haarForward(a);
    auto cb = haarForward(b);
    auto cs = haarForward(sum);
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_NEAR(cs[i], 2.0 * ca[i] + 3.0 * cb[i], 1e-12);
}

TEST(HaarInverse, PerfectReconstruction)
{
    Rng rng(2);
    for (std::size_t n : {1u, 2u, 4u, 8u, 64u, 128u, 1024u}) {
        std::vector<double> data(n);
        for (auto &v : data)
            v = rng.uniform(-10, 10);
        auto rec = haarInverse(haarForward(data));
        ASSERT_EQ(rec.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(rec[i], data[i], 1e-10);
    }
}

TEST(HaarInverse, RoundTripFromCoefficients)
{
    Rng rng(3);
    std::vector<double> coeffs(64);
    for (auto &v : coeffs)
        v = rng.gaussian();
    auto c2 = haarForward(haarInverse(coeffs));
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_NEAR(c2[i], coeffs[i], 1e-10);
}

TEST(HaarInverse, TruncatedCoefficientsApproximate)
{
    // Keeping only the average reconstructs a flat line at the mean;
    // adding details monotonically reduces error (Figure 4 behaviour).
    Rng rng(4);
    std::vector<double> data(64);
    for (std::size_t i = 0; i < 64; ++i)
        data[i] = std::sin(static_cast<double>(i) * 0.3) +
                  0.1 * rng.gaussian();

    auto coeffs = haarForward(data);
    double prev_err = 1e300;
    for (std::size_t keep : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        std::vector<double> masked(coeffs.size(), 0.0);
        for (std::size_t i = 0; i < keep; ++i)
            masked[i] = coeffs[i];
        auto rec = haarInverse(masked);
        double err = 0.0;
        for (std::size_t i = 0; i < data.size(); ++i)
            err += (rec[i] - data[i]) * (rec[i] - data[i]);
        EXPECT_LE(err, prev_err + 1e-9);
        prev_err = err;
    }
    EXPECT_NEAR(prev_err, 0.0, 1e-10);
}

TEST(HaarLevels, Dyadic)
{
    EXPECT_EQ(haarLevels(1), 0u);
    EXPECT_EQ(haarLevels(2), 1u);
    EXPECT_EQ(haarLevels(128), 7u);
}

TEST(CoefficientLevel, Layout)
{
    EXPECT_EQ(coefficientLevel(0), 0u);
    EXPECT_EQ(coefficientLevel(1), 1u);
    EXPECT_EQ(coefficientLevel(2), 2u);
    EXPECT_EQ(coefficientLevel(3), 2u);
    EXPECT_EQ(coefficientLevel(4), 3u);
    EXPECT_EQ(coefficientLevel(7), 3u);
    EXPECT_EQ(coefficientLevel(8), 4u);
    EXPECT_EQ(coefficientLevel(64), 7u);
    EXPECT_EQ(coefficientLevel(127), 7u);
}

TEST(Resample, PowerOfTwoUnchanged)
{
    std::vector<double> v = {1, 2, 3, 4};
    EXPECT_EQ(resampleToPowerOfTwo(v), v);
}

TEST(Resample, ShrinksToLowerPowerPreservingMean)
{
    std::vector<double> v = {1, 1, 1, 1, 1, 1}; // 6 -> 4
    auto r = resampleToPowerOfTwo(v);
    ASSERT_EQ(r.size(), 4u);
    for (double x : r)
        EXPECT_NEAR(x, 1.0, 1e-12);
}

TEST(Resample, EmptyStaysEmpty)
{
    EXPECT_TRUE(resampleToPowerOfTwo({}).empty());
}

TEST(Resample, MeanApproximatelyPreserved)
{
    Rng rng(11);
    std::vector<double> v(100);
    double mean = 0.0;
    for (auto &x : v) {
        x = rng.uniform(0, 10);
        mean += x;
    }
    mean /= 100.0;
    auto r = resampleToPowerOfTwo(v);
    ASSERT_EQ(r.size(), 64u);
    double rmean = 0.0;
    for (double x : r)
        rmean += x;
    rmean /= 64.0;
    EXPECT_NEAR(rmean, mean, 0.3);
}

// Property sweep: reconstruction holds across sizes and signal shapes.
class HaarRoundTrip : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(HaarRoundTrip, Exact)
{
    std::size_t n = GetParam();
    Rng rng(n);
    std::vector<double> data(n);
    for (std::size_t i = 0; i < n; ++i)
        data[i] = std::cos(static_cast<double>(i)) * 5.0 + rng.gaussian();
    auto rec = haarInverse(haarForward(data));
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_NEAR(rec[i], data[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HaarRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128,
                                           256, 512, 1024));

// The allocation-free inverse must be bit-identical to haarInverse for
// every size and signal.
class HaarInverseInto : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(HaarInverseInto, BitIdenticalToHaarInverse)
{
    std::size_t n = GetParam();
    Rng rng(n * 31 + 7);
    std::vector<double> coeffs(n);
    for (std::size_t i = 0; i < n; ++i)
        coeffs[i] = rng.gaussian() * 3.0;

    auto reference = haarInverse(coeffs);
    std::vector<double> out(n, -1.0);
    std::vector<double> scratch(n, -2.0);
    haarInverseInto(coeffs.data(), n, out.data(), scratch.data());
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], reference[i]) << "index " << i << " n " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, HaarInverseInto,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128,
                                           256, 512, 1024));

/**
 * The samples a segment plan describes at coefficients @p bySlot
 * (value of selected[s] at bySlot[s]), and checks on its shape: ops
 * read registers already written, segments cover n samples in order.
 */
std::vector<double>
expandPlan(const HaarSegmentPlan &plan, std::size_t n,
           const std::vector<double> &bySlot)
{
    std::vector<double> reg(plan.registers, 0.0);
    std::vector<bool> written(plan.registers, false);
    reg[0] = plan.rootSlot == HaarSegmentPlan::kNoSlot
                 ? 0.0
                 : bySlot[plan.rootSlot];
    written[0] = true;
    for (const HaarSegmentPlan::Op &op : plan.ops) {
        EXPECT_LT(op.dst, plan.registers);
        EXPECT_TRUE(written[op.src]) << "op reads register " << op.src
                                     << " before it is written";
        EXPECT_FALSE(written[op.dst]);
        reg[op.dst] = op.add ? reg[op.src] + bySlot[op.slot]
                             : reg[op.src] - bySlot[op.slot];
        written[op.dst] = true;
    }
    std::vector<double> out;
    for (const HaarSegmentPlan::Segment &seg : plan.segments) {
        EXPECT_GT(seg.samples, 0u);
        EXPECT_TRUE(written[seg.reg]);
        out.insert(out.end(), seg.samples, reg[seg.reg]);
    }
    EXPECT_EQ(out.size(), n);
    return out;
}

/** True when @p a and @p b hold the same bits. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Plan @p selected, expand it at random coefficients, and compare
 *  bit for bit with haarInverse of the masked vector: the root is
 *  never -0.0 here. */
void
checkPlan(std::size_t n, const std::vector<std::size_t> &selected,
          Rng &rng)
{
    HaarSegmentPlan plan = haarSegmentPlan(n, selected);
    std::size_t details = 0;
    for (std::size_t i : selected)
        details += i != 0;
    EXPECT_LE(plan.registers, 1 + 2 * details);
    for (std::size_t i = 1; i < plan.segments.size(); ++i)
        EXPECT_NE(plan.segments[i - 1].reg, plan.segments[i].reg)
            << "adjacent segments of one register are merged";

    std::vector<double> bySlot, masked(n, 0.0);
    for (std::size_t i : selected) {
        bySlot.push_back(rng.gaussian() * 3.0);
        masked[i] = bySlot.back();
    }
    std::vector<double> expanded = expandPlan(plan, n, bySlot);
    std::vector<double> reference = haarInverse(masked);
    ASSERT_EQ(expanded.size(), n);
    for (std::size_t t = 0; t < n; ++t)
        ASSERT_TRUE(sameBits(expanded[t], reference[t]))
            << expanded[t] << " vs " << reference[t] << " sample " << t
            << " n " << n << " selected " << selected.size();
}

TEST(HaarSegmentPlan, MatchesMaskedInverse)
{
    Rng rng(2024);
    for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 64u, 128u}) {
        std::vector<std::size_t> all(n);
        for (std::size_t i = 0; i < n; ++i)
            all[i] = i;
        checkPlan(n, {}, rng);  // every sample is zero
        checkPlan(n, {0}, rng); // one segment, the average
        checkPlan(n, all, rng); // n one-sample segments
        // Only the finest details, with and without the average.
        std::vector<std::size_t> finest;
        for (std::size_t i = n / 2; i < n && n > 1; ++i)
            finest.push_back(i);
        checkPlan(n, finest, rng);
        finest.push_back(0);
        checkPlan(n, finest, rng);
        // Random selections in random order, c0 absent half the time.
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<std::size_t> order = all;
            for (std::size_t i = n; i > 1; --i)
                std::swap(order[i - 1], order[rng.below(i)]);
            const std::size_t k = std::min<std::size_t>(
                n, trial % 2 ? 16 : 1 + rng.below(n));
            checkPlan(n, {order.begin(), order.begin() + k}, rng);
        }
    }
}

TEST(HaarSegmentPlan, NegativeZeroRootFlipsOnlyZeroSigns)
{
    // haarInverse adds the unselected details 1 and 2 as +0.0, which
    // turns the -0.0 average into +0.0 over samples 0..1; the plan
    // keeps -0.0 there. Samples 2..3 come from selected detail 3 and
    // keep their bits.
    HaarSegmentPlan plan = haarSegmentPlan(4, {0, 3});
    std::vector<double> expanded = expandPlan(plan, 4, {-0.0, 1.5});
    std::vector<double> reference = haarInverse({-0.0, 0.0, 0.0, 1.5});
    ASSERT_EQ(expanded, reference); // by value
    for (std::size_t t = 0; t < 2; ++t) {
        EXPECT_TRUE(std::signbit(expanded[t])) << "sample " << t;
        EXPECT_FALSE(std::signbit(reference[t])) << "sample " << t;
    }
    for (std::size_t t = 2; t < 4; ++t)
        EXPECT_TRUE(sameBits(expanded[t], reference[t])) << "sample " << t;
}

TEST(HaarSegmentPlan, SixteenOfOneTwentyEight)
{
    // The paper's k = 16 of 128: coarse details and a few fine ones.
    const std::vector<std::size_t> selected = {
        0, 1, 2, 3, 5, 6, 9, 12, 17, 25, 40, 41, 77, 100, 101, 127};
    HaarSegmentPlan plan = haarSegmentPlan(128, selected);
    EXPECT_EQ(plan.rootSlot, 0u);
    EXPECT_EQ(plan.registers, 1u + 2u * 15u);
    EXPECT_EQ(plan.ops.size(), 2u * 15u);
    EXPECT_LT(plan.segments.size(), 64u);
    Rng rng(16);
    checkPlan(128, selected, rng);
    // Level order: an op's node never precedes its parent's.
    for (std::size_t i = 1; i < plan.ops.size(); ++i)
        EXPECT_LE(selected[plan.ops[i - 1].slot],
                  selected[plan.ops[i].slot]);
}

} // anonymous namespace
} // namespace wavedyn
