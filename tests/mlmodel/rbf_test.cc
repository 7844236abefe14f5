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

TEST(RbfUnitResponse, IsProductOfPerDimensionFactors)
{
    // responseAt is 1.0 times exp(-z_d * z_d) for each dimension, in
    // dimension order: the order fixes the rounding, and RbfUnitPool's
    // shared prefix products depend on it.
    Rng rng(31);
    std::size_t orderMatters = 0;
    for (int i = 0; i < 2000; ++i) {
        RbfUnit u;
        std::vector<double> x;
        const std::size_t dims = 1 + rng.below(9);
        for (std::size_t d = 0; d < dims; ++d) {
            u.center.push_back(rng.uniform());
            u.radius.push_back(rng.uniform(0.05, 2.0));
            x.push_back(rng.uniform());
        }
        std::vector<double> factors;
        for (std::size_t d = 0; d < dims; ++d) {
            const double z = (x[d] - u.center[d]) / u.radius[d];
            factors.push_back(std::exp(-(z * z)));
        }
        double want = 1.0, reversed = 1.0;
        for (std::size_t d = 0; d < dims; ++d) {
            want *= factors[d];
            reversed *= factors[dims - 1 - d];
        }
        ASSERT_EQ(bitsOf(RbfNetwork::responseAt(u, x.data())), bitsOf(want))
            << "draw " << i;
        EXPECT_EQ(bitsOf(RbfNetwork::response(u, x)), bitsOf(want));
        orderMatters += bitsOf(reversed) != bitsOf(want);
    }
    // The draws can tell the dimension order apart.
    EXPECT_GT(orderMatters, 100u);
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

    /** Every listed row's normalised coordinates, one row each. */
    Matrix
    points() const
    {
        Matrix x(rows(), levels.size());
        for (std::size_t r = 0; r < rows(); ++r)
            for (std::size_t d = 0; d < levels.size(); ++d)
                x.at(r, d) = levels[d][idx[r * levels.size() + d]];
        return x;
    }

    /** Append row @p flat of the full lattice, last dimension
     *  fastest. */
    void
    addFlat(std::size_t flat)
    {
        const std::size_t at = idx.size();
        idx.resize(at + levels.size());
        for (std::size_t d = levels.size(); d-- > 0;) {
            idx[at + d] = flat % levels[d].size();
            flat /= levels[d].size();
        }
    }
};

/** Every row of the lattice, last dimension fastest. */
Lattice
fullLattice(std::vector<std::vector<double>> levels)
{
    Lattice lat;
    lat.levels = std::move(levels);
    std::size_t total = 1;
    for (const std::vector<double> &lv : lat.levels)
        total *= lv.size();
    for (std::size_t flat = 0; flat < total; ++flat)
        lat.addFlat(flat);
    return lat;
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
 * Four networks grown on one 60-row design matrix of @p dims inputs
 * (at least 4), with @p opts: they share units. The offset target
 * grows the same tree as the plain one (same units, a much larger
 * running sum); the doubled radius scale keeps every centre and
 * changes every radius; the other target grows a different tree below
 * the shared root.
 */
std::vector<RbfNetwork>
sharedNetworks(std::size_t dims, RbfOptions opts)
{
    Matrix x;
    std::vector<double> y;
    makeData(60, dims, smoothFunc, 9, x, y);
    std::vector<double> offset = y, other = y;
    for (std::size_t i = 0; i < y.size(); ++i) {
        offset[i] += 1e3;
        other[i] = std::cos(5.0 * x.at(i, 2)) * x.at(i, 3);
    }
    RbfOptions wide = opts;
    wide.radiusScale *= 2.0;
    std::vector<RbfNetwork> nets(4, RbfNetwork(opts));
    nets[2] = RbfNetwork(wide);
    nets[0].fit(x, offset);
    nets[1].fit(x, y);
    nets[2].fit(x, y);
    nets[3].fit(x, other);
    return nets;
}

/**
 * Pool @p nets on @p lat and evaluate its rows in two calls on one
 * scratch, split after row @p split: every network's results must
 * equal predictMany() at the rows' coordinates.
 */
void
expectPoolMatchesPredictMany(const std::vector<RbfNetwork> &nets,
                             const Lattice &lat, std::size_t split)
{
    std::vector<const RbfNetwork *> ptrs;
    std::size_t total = 0;
    for (const RbfNetwork &net : nets) {
        ASSERT_FALSE(net.units().empty());
        ptrs.push_back(&net);
        total += net.units().size();
    }
    RbfUnitPool pool(ptrs, lat.levels);
    EXPECT_EQ(pool.networks(), nets.size());
    EXPECT_LT(pool.distinctUnits(), total);
    // Nothing tabulated for one block may leak into the next call.
    const std::size_t n = lat.rows(), dims = lat.levels.size();
    std::vector<double> got(nets.size() * n);
    RbfUnitPool::Scratch scratch(pool);
    RbfTermCounts counts;
    pool.predict(scratch, lat.idx.data(), split, got.data(), n, counts);
    pool.predict(scratch, lat.idx.data() + split * dims, n - split,
                 got.data() + split, n, counts);
    const Matrix rows = lat.points();
    for (std::size_t m = 0; m < nets.size(); ++m)
        EXPECT_EQ(std::vector<double>(got.begin() + m * n,
                                      got.begin() + (m + 1) * n),
                  nets[m].predictMany(rows))
            << "network " << m;
    EXPECT_EQ(counts.terms, n * total);
    EXPECT_EQ(counts.rows, n);
}

TEST(RbfUnitPool, SharedUnitsMatchPredictMany)
{
    // Every row of a 4 x 3 x 5 x 9 lattice, last dimension fastest.
    // The dimensions differ in level count, so the table's shared
    // level stride leaves unused rows in all but the widest. The split
    // falls inside a run.
    std::vector<std::vector<double>> levels = {
        {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}, {0.0, 0.5, 1.0},
        {0.0, 0.25, 0.5, 0.75, 1.0}, evenLevels(9)};
    const Lattice lat = fullLattice(levels);
    expectPoolMatchesPredictMany(sharedNetworks(4, RbfOptions{}), lat, 301);

    // Wide units, every theta >= 1 as GCV-chosen radius scales give:
    // no factor is anywhere near 0, so every term counts.
    RbfOptions wide;
    wide.radiusScale = 4.0;
    wide.radiusFloor = 1.0;
    const std::vector<RbfNetwork> wideNets = sharedNetworks(4, wide);
    for (const RbfNetwork &net : wideNets)
        for (const RbfUnit &u : net.units())
            for (double theta : u.radius)
                ASSERT_GE(theta, 1.0);
    expectPoolMatchesPredictMany(wideNets, lat, 301);

    // The paper space's shape, 9 dimensions of 8 levels: runs of 80
    // consecutive rows at 16 strided starts of its 8^9 rows.
    Lattice paper;
    paper.levels.assign(9, evenLevels(8));
    for (std::size_t c = 0; c < 16; ++c)
        for (std::size_t r = 0; r < 80; ++r)
            paper.addFlat(c * 8388593 + r);
    expectPoolMatchesPredictMany(sharedNetworks(9, RbfOptions{}), paper,
                                 613);
}

/**
 * Pool @p nets on @p lat, evaluate its rows in calls of @p block rows
 * and expect every result bit-identical to predict().
 */
void
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
    EXPECT_EQ(counts.terms, n * refs);
    EXPECT_EQ(counts.rows, n);
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
                        -3.0, 1.0, 1e300, -1e300, inf, -inf, nan}) {
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
    expectPoolMatchesPredict(nets, shuffled, 64);
}

TEST(RbfUnitPool, PartialTilesWriteNothingPastN)
{
    // A block's rows sum in 16-row tiles, and its last tile runs past
    // row n: every out[m * stride + r] with r >= n must keep its
    // sentinel, and every r < n must match predictMany() bit for bit.
    // Two row orders: the lattice's own (runs of every last-dimension
    // level), and one where no row shares its prefix with the row
    // before (runs of one row, as in a strided sweep).
    std::vector<std::vector<double>> levels = {
        evenLevels(4), evenLevels(3), evenLevels(5), evenLevels(9)};
    const std::vector<RbfNetwork> nets = sharedNetworks(4, RbfOptions{});
    std::vector<const RbfNetwork *> ptrs;
    std::size_t refs = 0;
    for (const RbfNetwork &net : nets) {
        ptrs.push_back(&net);
        refs += net.units().size();
    }
    const RbfUnitPool pool(ptrs, levels);
    Lattice runs = fullLattice(levels);
    Lattice single;
    single.levels = levels;
    for (std::size_t r = 0; r < 96; ++r)
        single.addFlat(r * 10 % runs.rows());
    const std::size_t dims = levels.size();
    for (std::size_t r = 1; r < single.rows(); ++r)
        ASSERT_FALSE(std::equal(single.idx.begin() + r * dims,
                                single.idx.begin() + r * dims + dims - 1,
                                single.idx.begin() + (r - 1) * dims));

    const double sentinel = -7.25e77;
    for (const Lattice *lat : {&runs, &single}) {
        for (std::size_t n : {1, 15, 17, 63, 64, 81}) {
            const std::size_t stride = n + 5;
            std::vector<double> out(nets.size() * stride, sentinel);
            RbfUnitPool::Scratch scratch(pool);
            RbfTermCounts counts;
            pool.predict(scratch, lat->idx.data(), n, out.data(), stride,
                         counts);
            Lattice head;
            head.levels = levels;
            head.idx.assign(lat->idx.begin(), lat->idx.begin() + n * dims);
            const Matrix rows = head.points();
            for (std::size_t m = 0; m < nets.size(); ++m) {
                const std::vector<double> want = nets[m].predictMany(rows);
                for (std::size_t r = 0; r < stride; ++r)
                    ASSERT_EQ(bitsOf(out[m * stride + r]),
                              bitsOf(r < n ? want[r] : sentinel))
                        << "n " << n << " network " << m << " row " << r;
            }
            EXPECT_EQ(counts.terms, n * refs);
            EXPECT_EQ(counts.rows, n);
        }
    }
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
