/**
 * @file
 * Tests for the RBF network with regression-tree-derived units.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "mlmodel/rbf_network.hh"
#include "util/rng.hh"

namespace wavedyn
{
namespace
{

/** Random inputs in [0,1]^d plus responses from a provided function. */
template <typename F>
void
makeData(std::size_t n, std::size_t d, F f, std::uint64_t seed,
         Matrix &x, std::vector<double> &y)
{
    Rng rng(seed);
    x = Matrix(n, d);
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(d);
        for (std::size_t k = 0; k < d; ++k) {
            row[k] = rng.uniform();
            x.at(i, k) = row[k];
        }
        y[i] = f(row);
    }
}

double
testError(const RegressionModel &m, std::size_t d,
          double (*f)(const std::vector<double> &), std::uint64_t seed)
{
    Rng rng(seed);
    double sse = 0.0, ref = 0.0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        std::vector<double> row(d);
        for (auto &v : row)
            v = rng.uniform();
        double truth = f(row);
        double pred = m.predict(row);
        sse += (truth - pred) * (truth - pred);
        ref += truth * truth;
    }
    return ref > 0 ? sse / ref : sse;
}

double
smoothFunc(const std::vector<double> &v)
{
    return std::sin(3.0 * v[0]) + 2.0 * v[1];
}

double
constantFunc(const std::vector<double> &)
{
    return 4.2;
}

TEST(RbfUnitResponse, PeaksAtCenter)
{
    RbfUnit u;
    u.center = {0.5, 0.5};
    u.radius = {0.2, 0.2};
    double at_center = RbfNetwork::response(u, {0.5, 0.5});
    double off_center = RbfNetwork::response(u, {0.7, 0.5});
    EXPECT_DOUBLE_EQ(at_center, 1.0);
    EXPECT_LT(off_center, at_center);
    EXPECT_GT(off_center, 0.0);
}

TEST(RbfUnitResponse, MonotoneDecayWithDistance)
{
    RbfUnit u;
    u.center = {0.0};
    u.radius = {1.0};
    double prev = 2.0;
    for (double x = 0.0; x <= 3.0; x += 0.25) {
        double r = RbfNetwork::response(u, {x});
        EXPECT_LT(r, prev);
        prev = r;
    }
}

TEST(RbfUnitResponse, RadiusControlsWidth)
{
    RbfUnit narrow, wide;
    narrow.center = wide.center = {0.0};
    narrow.radius = {0.1};
    wide.radius = {1.0};
    EXPECT_LT(RbfNetwork::response(narrow, {0.5}),
              RbfNetwork::response(wide, {0.5}));
}

TEST(RbfNetwork, FitsConstantExactly)
{
    Matrix x;
    std::vector<double> y;
    makeData(50, 2, constantFunc, 1, x, y);
    RbfNetwork net;
    net.fit(x, y);
    // Ridge shrinkage leaves a tiny bias; "exact" up to the regulariser.
    EXPECT_NEAR(net.predict({0.3, 0.9}), 4.2, 1e-3);
}

TEST(RbfNetwork, LearnsSmoothNonlinearFunction)
{
    Matrix x;
    std::vector<double> y;
    makeData(200, 2, smoothFunc, 2, x, y);
    RbfNetwork net;
    net.fit(x, y);
    EXPECT_LT(testError(net, 2, smoothFunc, 3), 0.02);
}

TEST(RbfNetwork, RidgeAllAlsoLearns)
{
    Matrix x;
    std::vector<double> y;
    makeData(200, 2, smoothFunc, 4, x, y);
    RbfOptions opts;
    opts.fit = RbfFit::RidgeAll;
    RbfNetwork net(opts);
    net.fit(x, y);
    EXPECT_LT(testError(net, 2, smoothFunc, 5), 0.05);
}

TEST(RbfNetwork, BeatsGlobalMeanOnNonlinearData)
{
    Matrix x;
    std::vector<double> y;
    makeData(150, 2, smoothFunc, 6, x, y);
    RbfNetwork net;
    net.fit(x, y);

    double mean = 0.0;
    for (double v : y)
        mean += v;
    mean /= static_cast<double>(y.size());

    Rng rng(7);
    double sse_net = 0.0, sse_mean = 0.0;
    for (int i = 0; i < 200; ++i) {
        std::vector<double> row = {rng.uniform(), rng.uniform()};
        double truth = smoothFunc(row);
        sse_net += std::pow(truth - net.predict(row), 2);
        sse_mean += std::pow(truth - mean, 2);
    }
    EXPECT_LT(sse_net, 0.2 * sse_mean);
}

TEST(RbfNetwork, UnitCountBounded)
{
    Matrix x;
    std::vector<double> y;
    makeData(200, 3,
             [](const std::vector<double> &v) {
                 return std::sin(8.0 * v[0]) * std::cos(5.0 * v[1]) + v[2];
             },
             8, x, y);
    RbfOptions opts;
    opts.maxUnits = 20;
    RbfNetwork net(opts);
    net.fit(x, y);
    EXPECT_LE(net.units().size(), 20u);
    EXPECT_GT(net.units().size(), 0u);
}

TEST(RbfNetwork, RadiiRespectFloor)
{
    Matrix x;
    std::vector<double> y;
    makeData(100, 2, smoothFunc, 9, x, y);
    RbfOptions opts;
    opts.radiusFloor = 0.07;
    RbfNetwork net(opts);
    net.fit(x, y);
    for (const auto &u : net.units())
        for (double r : u.radius)
            EXPECT_GE(r, 0.07);
}

TEST(RbfNetwork, SeedTreeAvailableAfterFit)
{
    Matrix x;
    std::vector<double> y;
    makeData(80, 2, smoothFunc, 10, x, y);
    RbfNetwork net;
    net.fit(x, y);
    EXPECT_FALSE(net.seedTree().nodes().empty());
}

TEST(RbfNetwork, DeterministicFit)
{
    Matrix x;
    std::vector<double> y;
    makeData(120, 2, smoothFunc, 11, x, y);
    RbfNetwork a, b;
    a.fit(x, y);
    b.fit(x, y);
    Rng rng(12);
    for (int i = 0; i < 50; ++i) {
        std::vector<double> row = {rng.uniform(), rng.uniform()};
        EXPECT_DOUBLE_EQ(a.predict(row), b.predict(row));
    }
}

TEST(RbfNetwork, HandlesTinyTrainingSet)
{
    Matrix x(3, 2);
    x.at(0, 0) = 0.0;
    x.at(1, 0) = 0.5;
    x.at(2, 0) = 1.0;
    std::vector<double> y = {1.0, 2.0, 3.0};
    RbfNetwork net;
    net.fit(x, y);
    // Must produce finite predictions near the data range.
    double p = net.predict({0.5, 0.0});
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 4.0);
}

TEST(RbfNetwork, RefitReplacesOldModel)
{
    Matrix x;
    std::vector<double> y;
    makeData(60, 1, [](const std::vector<double> &v) { return v[0]; },
             13, x, y);
    RbfNetwork net;
    net.fit(x, y);
    double before = net.predict({0.5});

    std::vector<double> y2(y.size(), 9.0);
    net.fit(x, y2);
    EXPECT_NEAR(net.predict({0.5}), 9.0, 1e-3);
    EXPECT_NE(before, net.predict({0.5}));
}

TEST(RbfNetwork, InterpolatesBetweenLevels)
{
    // Train on a coarse grid, predict between grid points: prediction
    // should stay within the response range (no wild extrapolation).
    Matrix x(5, 1);
    std::vector<double> y(5);
    for (int i = 0; i < 5; ++i) {
        x.at(i, 0) = i / 4.0;
        y[i] = std::sin(3.0 * x.at(i, 0));
    }
    RbfNetwork net;
    net.fit(x, y);
    for (double p = 0.0; p <= 1.0; p += 0.05) {
        double v = net.predict({p});
        EXPECT_GT(v, -1.5);
        EXPECT_LT(v, 1.5);
    }
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

TEST(RbfSkipRule, SkippedTermsNeverChangeTheSum)
{
    // Random (acc, w, z2) across every binade of acc, including
    // subnormals, +-0, +-inf and NaN; every skip must leave acc's bits
    // exactly as adding the term would. Half of the draws put z2 just
    // past the skip threshold, where the bound is tightest.
    Rng rng(2024);
    std::size_t skips = 0, edgeSkips = 0;
    for (int i = 0; i < 1000000; ++i) {
        std::uint64_t exponent = rng.below(2048);
        std::uint64_t mantissa =
            rng.chance(0.05) ? 0 : rng.next() & ((1ull << 52) - 1);
        std::uint64_t sign = rng.next() & (1ull << 63);
        std::uint64_t accBits = sign | (exponent << 52) | mantissa;
        double acc = 0.0;
        std::memcpy(&acc, &accBits, sizeof acc);

        double w = std::pow(10.0, rng.uniform(-300.0, 300.0));
        if (rng.chance(0.5))
            w = -w;
        double logAbsW = std::log(std::fabs(w));

        bool edge = rng.chance(0.5);
        double z2 = rng.uniform(0.0, 800.0);
        if (edge) {
            double threshold =
                logAbsW + static_cast<double>(1079 - static_cast<int>(
                                                         exponent)) *
                              std::log(2.0);
            z2 = std::min(std::max(threshold + rng.uniform(0.0, 1e-3),
                                   0.0),
                          800.0);
        }
        if (!rbfTermNegligible(acc, logAbsW, z2))
            continue;
        ++skips;
        edgeSkips += edge;
        ASSERT_EQ(bitsOf(acc + w * std::exp(-z2)), bitsOf(acc))
            << "acc=" << acc << " w=" << w << " z2=" << z2;
    }
    EXPECT_GT(skips, 300000u);
    EXPECT_GT(edgeSkips, 100000u);
}

TEST(RbfSkipRule, NeverSkipsOnSpecialValues)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double acc : {0.0, -0.0, 1e-310, -1e-310, inf, -inf, nan})
        EXPECT_FALSE(rbfTermNegligible(acc, 0.0, 800.0)) << acc;
    EXPECT_FALSE(rbfTermNegligible(1.0, 0.0, nan));
    EXPECT_FALSE(rbfTermNegligible(1.0, nan, 800.0));
    EXPECT_FALSE(rbfTermNegligible(1.0, inf, 800.0));
    EXPECT_TRUE(rbfTermNegligible(1.0, 0.0, 800.0));
}

/** A double with biased exponent @p e, a random mantissa and sign. */
double
withExponent(Rng &rng, std::uint64_t e)
{
    std::uint64_t bits = (rng.next() & (1ull << 63)) | (e << 52) |
                         (rng.next() & ((1ull << 52) - 1));
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

TEST(RbfSkipRule, NegligibleAtTheFloorStaysNegligibleAbove)
{
    // The lattice kernel leaves out a term negligible at a network's
    // floor exponent for every exponent the sum reaches above it, so
    // the bound must not grow with the exponent.
    for (unsigned e = 1; e < 0x7fe; ++e)
        ASSERT_LE(rbfNegligibleBound(e + 1), rbfNegligibleBound(e)) << e;
    EXPECT_EQ(rbfNegligibleBound(0), std::numeric_limits<double>::infinity());
    EXPECT_EQ(rbfNegligibleBound(0x7ff),
              std::numeric_limits<double>::infinity());

    // Cases drawn as in SkippedTermsNeverChangeTheSum; every higher
    // finite exponent must skip the term too, and adding it there must
    // leave the sum's bits alone.
    Rng rng(2025);
    std::size_t negligible = 0;
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t floorExp = 1 + rng.below(0x7fe);
        double w = std::pow(10.0, rng.uniform(-300.0, 300.0));
        if (rng.chance(0.5))
            w = -w;
        const double logAbsW = std::log(std::fabs(w));
        double z2 = rng.uniform(0.0, 800.0);
        if (rng.chance(0.5))
            z2 = std::min(
                std::max(logAbsW +
                             rbfNegligibleBound(
                                 static_cast<unsigned>(floorExp)) +
                             rng.uniform(0.0, 1e-3),
                         0.0),
                800.0);
        if (!rbfTermNegligible(withExponent(rng, floorExp), logAbsW, z2))
            continue;
        ++negligible;
        for (std::uint64_t e = floorExp + 1; e < 0x7ff; ++e) {
            const double acc = withExponent(rng, e);
            ASSERT_TRUE(rbfTermNegligible(acc, logAbsW, z2))
                << "floor " << floorExp << " exponent " << e;
            ASSERT_EQ(bitsOf(acc + w * std::exp(-z2)), bitsOf(acc));
        }
    }
    EXPECT_GT(negligible, 1000u);
}

TEST(RbfUnitPool, SharedUnitsMatchPredictMany)
{
    // Networks grown on one design matrix share units. The offset
    // target grows the same tree as the plain one (same units, a much
    // larger running sum, so different skip decisions); the wider
    // radius scale keeps every centre and changes every radius; the
    // other target grows a different tree below the shared root.
    Matrix x;
    std::vector<double> y;
    makeData(60, 4, smoothFunc, 9, x, y);
    std::vector<double> offset = y, other = y;
    for (std::size_t i = 0; i < y.size(); ++i) {
        offset[i] += 1e3;
        other[i] = std::cos(5.0 * x.at(i, 2)) * x.at(i, 3);
    }
    RbfOptions wide;
    wide.radiusScale = 2.0;
    std::vector<RbfNetwork> nets(4);
    nets[2] = RbfNetwork(wide);
    nets[0].fit(x, offset);
    nets[1].fit(x, y);
    nets[2].fit(x, y);
    nets[3].fit(x, other);
    std::vector<const RbfNetwork *> ptrs;
    std::size_t total = 0;
    for (const RbfNetwork &net : nets) {
        ASSERT_FALSE(net.units().empty());
        ptrs.push_back(&net);
        total += net.units().size();
    }

    // Every row of a 4 x 3 x 5 x 9 lattice, last dimension fastest.
    // The dimensions differ in level count, so the table's shared
    // level stride leaves unused rows in all but the widest.
    std::vector<std::vector<double>> levels = {
        {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}, {0.0, 0.5, 1.0},
        {0.0, 0.25, 0.5, 0.75, 1.0}, {}};
    for (std::size_t i = 0; i < 9; ++i)
        levels[3].push_back(static_cast<double>(i) / 8.0);
    std::vector<std::size_t> idx;
    Matrix rows(4 * 3 * 5 * 9, 4);
    std::size_t r = 0;
    for (std::size_t a = 0; a < 4; ++a)
        for (std::size_t b = 0; b < 3; ++b)
            for (std::size_t c = 0; c < 5; ++c)
                for (std::size_t e = 0; e < 9; ++e, ++r) {
                    idx.insert(idx.end(), {a, b, c, e});
                    rows.at(r, 0) = levels[0][a];
                    rows.at(r, 1) = levels[1][b];
                    rows.at(r, 2) = levels[2][c];
                    rows.at(r, 3) = levels[3][e];
                }

    RbfUnitPool pool(ptrs, levels);
    EXPECT_EQ(pool.networks(), nets.size());
    EXPECT_LT(pool.distinctUnits(), total);
    // Two calls on one scratch: nothing tabulated for one block may
    // leak into the next; the split falls inside a run.
    const std::size_t n = rows.rows(), split = 301;
    std::vector<double> got(nets.size() * n);
    RbfUnitPool::Scratch scratch(pool);
    RbfTermCounts counts;
    pool.predict(scratch, idx.data(), split, got.data(), n, counts);
    pool.predict(scratch, idx.data() + split * 4, n - split,
                 got.data() + split, n, counts);
    for (std::size_t m = 0; m < nets.size(); ++m)
        EXPECT_EQ(std::vector<double>(got.begin() + m * n,
                                      got.begin() + (m + 1) * n),
                  nets[m].predictMany(rows))
            << "network " << m;
    EXPECT_EQ(counts.evaluated + counts.skipped, n * total);
    EXPECT_GT(counts.skipped, 0u);
    EXPECT_LT(counts.exps, counts.evaluated);
    EXPECT_EQ(counts.rows, n);
}

/** A lattice and some of its rows, as level indices. */
struct Lattice
{
    std::vector<std::vector<double>> levels; //!< [dim][level]
    std::vector<std::size_t> idx;            //!< rows x dims

    std::size_t rows() const { return idx.size() / levels.size(); }

    std::vector<double>
    point(std::size_t r) const
    {
        std::vector<double> x;
        for (std::size_t d = 0; d < levels.size(); ++d)
            x.push_back(levels[d][idx[r * levels.size() + d]]);
        return x;
    }
};

/** Every row of the lattice, last dimension fastest. */
Lattice
fullLattice(std::vector<std::vector<double>> levels)
{
    Lattice lat;
    lat.levels = std::move(levels);
    std::vector<std::size_t> at(lat.levels.size(), 0);
    for (;;) {
        lat.idx.insert(lat.idx.end(), at.begin(), at.end());
        std::size_t d = at.size();
        while (d > 0 && ++at[d - 1] == lat.levels[d - 1].size())
            at[--d] = 0;
        if (d == 0)
            return lat;
    }
}

/** n evenly spaced levels in [0, 1]. */
std::vector<double>
evenLevels(std::size_t n)
{
    std::vector<double> lv;
    for (std::size_t i = 0; i < n; ++i)
        lv.push_back(static_cast<double>(i) / static_cast<double>(n - 1));
    return lv;
}

/**
 * The reruns the pool owes: (row, network) pairs whose running sum,
 * added term by term as predict() adds it, dips below the network's
 * floor or ends inf or NaN. A network with a zero, subnormal or
 * non-finite bias has no floor.
 */
std::uint64_t
expectedReruns(const std::vector<RbfNetwork> &nets, const Lattice &lat)
{
    std::uint64_t reruns = 0;
    for (const RbfNetwork &net : nets) {
        const double b = net.bias();
        double floor = 0.0;
        if (std::isnormal(b))
            floor = std::max(
                std::numeric_limits<double>::min(),
                std::ldexp(1.0, std::ilogb(b) -
                                    static_cast<int>(
                                        RbfUnitPool::kFloorBinades)));
        for (std::size_t r = 0; r < lat.rows(); ++r) {
            const std::vector<double> x = lat.point(r);
            double acc = b, lo = std::fabs(b);
            for (const RbfUnit &u : net.units()) {
                acc += u.weight * RbfNetwork::response(u, x);
                lo = std::min(lo, std::fabs(acc));
            }
            reruns += lo < floor || !std::isfinite(acc);
        }
    }
    return reruns;
}

/**
 * Pool @p nets on @p lat, evaluate its rows in calls of @p block rows
 * and expect every result bit-identical to predict(); returns the
 * counts.
 */
RbfTermCounts
expectPoolMatchesPredict(const std::vector<RbfNetwork> &nets,
                         const Lattice &lat, std::size_t block)
{
    std::vector<const RbfNetwork *> ptrs;
    std::size_t refs = 0;
    for (const RbfNetwork &net : nets) {
        ptrs.push_back(&net);
        refs += net.units().size();
    }
    RbfUnitPool pool(ptrs, lat.levels);
    const std::size_t n = lat.rows(), dims = lat.levels.size();
    std::vector<double> got(nets.size() * n);
    RbfUnitPool::Scratch scratch(pool);
    RbfTermCounts counts;
    for (std::size_t b0 = 0; b0 < n; b0 += block)
        pool.predict(scratch, lat.idx.data() + b0 * dims,
                     std::min(block, n - b0), got.data() + b0, n, counts);
    std::size_t mismatches = 0;
    for (std::size_t m = 0; m < nets.size(); ++m)
        for (std::size_t r = 0; r < n; ++r) {
            const double want = nets[m].predict(lat.point(r));
            if (bitsOf(got[m * n + r]) == bitsOf(want))
                continue;
            if (mismatches++ == 0)
                ADD_FAILURE() << "network " << m << " row " << r << ": got "
                              << got[m * n + r] << ", predict() " << want;
        }
    EXPECT_EQ(mismatches, 0u) << "block of " << block;
    EXPECT_EQ(counts.evaluated + counts.skipped, n * refs);
    EXPECT_EQ(counts.rows, n);
    return counts;
}

/** A unit with the same radius in every dimension. */
RbfUnit
unitAt(std::vector<double> center, double radius, double weight)
{
    RbfUnit u;
    u.radius.assign(center.size(), radius);
    u.center = std::move(center);
    u.weight = weight;
    return u;
}

TEST(RbfUnitPool, SumsNearZeroRerunExactly)
{
    // 64 levels in the last dimension: each block is one run. Every
    // network has bias 1, so its floor is 2^-4.
    const Lattice lat = fullLattice({{0.0, 0.5, 1.0}, evenLevels(64)});
    const double mid = lat.levels[1][31];
    std::vector<RbfNetwork> nets;
    // Crosses zero: exactly 0 at (0.5, mid). The second unit is far
    // from there (z^2 = 52, past its threshold) but near rows of the
    // same block, so the block tabulates a 0 for it at that row, and
    // the rerun must call exp() instead: predict() adds the term to 0.
    RbfUnit narrow = unitAt({0.5, mid}, 0.3, -1.0);
    narrow.radius[1] = 0.1;
    RbfUnit far = unitAt({0.5, mid + 0.4}, 0.3, 1.0);
    far.radius[1] = 0.4 / std::sqrt(52.0);
    nets.emplace_back(1.0, std::vector<RbfUnit>{narrow, far});
    // Dips to 0.05, one binade below the floor.
    RbfUnit dip = narrow;
    dip.weight = -0.95;
    nets.emplace_back(1.0, std::vector<RbfUnit>{dip});
    // Overflows to inf: reruns although no sum is small.
    nets.emplace_back(1.0, std::vector<RbfUnit>{unitAt({0.5, mid}, 0.5, 1e308),
                                                unitAt({0.5, mid}, 0.6, 1e308)});

    const RbfTermCounts counts = expectPoolMatchesPredict(nets, lat, 64);
    EXPECT_GT(counts.reruns, 0u);
    EXPECT_EQ(counts.reruns, expectedReruns(nets, lat));
    // The far term is all that is left there.
    const double left = nets[0].predict(lat.point(64 + 31));
    EXPECT_GT(left, 0.0);
    EXPECT_LT(left, 1e-20);
}

TEST(RbfUnitPool, ExtremeValuesMatchPredict)
{
    // Zero, subnormal, tiny, huge and non-finite biases; weights from
    // 1e-300 to 1e300; one unit with a NaN centre. Blocks of 1, 2, 63
    // and 64 rows, and a row order in which no row shares a prefix
    // with the last.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Lattice lat = fullLattice({evenLevels(4), evenLevels(3), evenLevels(6)});
    Rng rng(77);
    std::vector<RbfNetwork> nets;
    for (double bias : {0.0, -0.0, 4.9e-324, 1e-310, 2.3e-308, 1e-300,
                        -3.0, 1.0, 1e300, -1e300, inf, nan}) {
        std::vector<RbfUnit> units;
        for (int i = 0; i < 6; ++i) {
            double w = std::pow(10.0, rng.uniform(-300.0, 300.0));
            if (rng.chance(0.5))
                w = -w;
            units.push_back(unitAt({rng.uniform(), rng.uniform(),
                                    rng.uniform()},
                                   rng.uniform(0.05, 1.0), w));
        }
        nets.emplace_back(bias, std::move(units));
    }
    std::vector<RbfUnit> withNan = nets[7].units();
    withNan[2].center[1] = nan;
    nets.emplace_back(1.0, withNan);

    for (std::size_t block : {1, 2, 63, 64, 1000})
        expectPoolMatchesPredict(nets, lat, block);
    Lattice shuffled = lat;
    const std::size_t dims = lat.levels.size();
    for (std::size_t r = 0; r < lat.rows(); ++r) {
        const std::size_t from = (r * 37) % lat.rows();
        std::copy(lat.idx.begin() + from * dims,
                  lat.idx.begin() + (from + 1) * dims,
                  shuffled.idx.begin() + r * dims);
    }
    for (std::size_t r = 1; r < shuffled.rows(); ++r)
        ASSERT_NE(shuffled.idx[r * dims], shuffled.idx[(r - 1) * dims]);
    const RbfTermCounts counts = expectPoolMatchesPredict(nets, shuffled, 64);
    EXPECT_EQ(counts.reruns, expectedReruns(nets, shuffled));
}

TEST(RbfUnitPool, WellConditionedPoolNeverReruns)
{
    // Positive terms on a bias of 10: no sum comes near its floor.
    const Lattice lat = fullLattice({evenLevels(5), evenLevels(4),
                                     evenLevels(8)});
    Rng rng(5);
    std::vector<RbfNetwork> nets;
    for (int m = 0; m < 8; ++m) {
        std::vector<RbfUnit> units;
        for (int i = 0; i < 12; ++i)
            units.push_back(unitAt({rng.uniform(), rng.uniform(),
                                    rng.uniform()},
                                   rng.uniform(0.05, 0.5),
                                   rng.uniform(0.1, 1.0)));
        nets.emplace_back(10.0, std::move(units));
    }
    const RbfTermCounts counts = expectPoolMatchesPredict(nets, lat, 64);
    EXPECT_EQ(counts.reruns, 0u);
    EXPECT_GT(counts.skipped, 0u);
}

class RbfFitModes : public ::testing::TestWithParam<RbfFit>
{
};

TEST_P(RbfFitModes, RecoverAdditiveFunction)
{
    Matrix x;
    std::vector<double> y;
    makeData(250, 3,
             [](const std::vector<double> &v) {
                 return v[0] + 0.5 * std::sin(4.0 * v[1]) - 0.3 * v[2];
             },
             21, x, y);
    RbfOptions opts;
    opts.fit = GetParam();
    RbfNetwork net(opts);
    net.fit(x, y);

    Rng rng(22);
    double sse = 0.0;
    const int n = 150;
    for (int i = 0; i < n; ++i) {
        std::vector<double> row = {rng.uniform(), rng.uniform(),
                                   rng.uniform()};
        double truth = row[0] + 0.5 * std::sin(4.0 * row[1]) -
                       0.3 * row[2];
        sse += std::pow(truth - net.predict(row), 2);
    }
    // Response range is roughly [-0.8, 1.5]; 0.05 mean squared error
    // corresponds to ~15% RMS, comfortably better than the mean model.
    EXPECT_LT(sse / n, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Modes, RbfFitModes,
                         ::testing::Values(RbfFit::ForwardGcv,
                                           RbfFit::RidgeAll));

} // anonymous namespace
} // namespace wavedyn
