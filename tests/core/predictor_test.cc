/**
 * @file
 * Tests for the wavelet neural predictor on synthetic trace families
 * with known structure (no simulator in the loop — see the integration
 * suite for end-to-end coverage).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/predictor.hh"
#include "core/sampling.hh"
#include "telemetry/telemetry.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/stats.hh"
#include "wavelet/haar.hh"

namespace wavedyn
{
namespace
{

/**
 * Synthetic "workload dynamics": the trace shape is a *nonlinear*
 * function of the normalised design vector, mimicking real coupling —
 * exponential saturation in cache capacity, multiplicative width x
 * queue interaction, and a two-parameter threshold step. Linear models
 * cannot represent this family, which is the paper's motivation for
 * RBF networks.
 */
std::vector<double>
syntheticTrace(const std::vector<double> &norm, std::size_t n)
{
    std::vector<double> t(n);
    double mem_pressure = std::exp(-2.5 * norm[L2Size]) *
                          (1.5 - norm[Dl1Size]);
    double base = 1.0 + 2.2 * mem_pressure +
                  0.5 * norm[Dl1Lat] * (1.0 - norm[Dl1Size]);
    double amp = 0.2 + 0.9 * norm[FetchWidth] *
                 (1.0 - 0.5 * norm[L2Lat]);
    double step =
        (norm[RobSize] > 0.4 && norm[LsqSize] > 0.3) ? 0.8 : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double phase = static_cast<double>(i) / static_cast<double>(n);
        t[i] = base + amp * std::sin(2.0 * M_PI * 3.0 * phase) +
               (phase > 0.5 ? step : 0.0);
    }
    return t;
}

struct SyntheticData
{
    DesignSpace space;
    std::vector<DesignPoint> train, test;
    std::vector<std::vector<double>> trainTraces, testTraces;
};

SyntheticData
makeData(std::size_t n_train, std::size_t n_test, std::size_t len,
         std::uint64_t seed = 7)
{
    SyntheticData d;
    d.space = DesignSpace::paper();
    Rng rng(seed);
    d.train = bestLatinHypercube(d.space, n_train, 4, rng);
    d.test = randomTestSample(d.space, n_test, rng);
    for (const auto &p : d.train)
        d.trainTraces.push_back(syntheticTrace(d.space.normalize(p), len));
    for (const auto &p : d.test)
        d.testTraces.push_back(syntheticTrace(d.space.normalize(p), len));
    return d;
}

double
medianTestMse(const WaveletNeuralPredictor &pred, const SyntheticData &d)
{
    std::vector<double> mses;
    for (std::size_t i = 0; i < d.test.size(); ++i)
        mses.push_back(
            msePercent(d.testTraces[i], pred.predictTrace(d.test[i])));
    return boxplot(mses).median;
}

/**
 * The coefficient vector the predictor's definition gives at @p point:
 * each selected slot predicted from the normalised point, the rest
 * zero. Public accessors only.
 */
std::vector<double>
naiveCoefficients(const WaveletNeuralPredictor &pred,
                  const DesignPoint &point)
{
    std::vector<double> coeffs(pred.traceLength(), 0.0);
    auto norm = pred.designSpace().normalize(point);
    const auto &selected = pred.selectedCoefficients();
    for (std::size_t s = 0; s < selected.size(); ++s)
        coeffs[selected[s]] = pred.coefficientModels()[s]->predict(norm);
    return coeffs;
}

/**
 * The oracle for every prediction entry point: the coefficients of
 * naiveCoefficients, inverse-transformed point by point, clamped to
 * the training range plus a 10% margin. Adds the number of samples
 * the clamp moved to @p clamped when given.
 */
std::vector<double>
naiveTrace(const WaveletNeuralPredictor &pred, const DesignPoint &point,
           std::uint64_t *clamped = nullptr)
{
    auto coeffs = naiveCoefficients(pred, point);
    const PredictorOptions &opts = pred.options();
    auto trace = opts.paperHaar ? haarInverse(coeffs)
                                : WaveletTransform(opts.mother)
                                      .inverse(coeffs);
    if (opts.clampToTrainingRange) {
        auto [lo, hi] = pred.trainingRange();
        double margin = 0.1 * (hi - lo);
        for (double &v : trace) {
            if (clamped)
                *clamped += v < lo - margin || v > hi + margin;
            v = std::min(std::max(v, lo - margin), hi + margin);
        }
    }
    return trace;
}

/** Row @p r of @p segs, expanded into its samples. */
std::vector<double>
expandRow(const std::vector<TraceSegment> &segs, std::size_t r)
{
    std::vector<double> row;
    for (const TraceSegment &seg : segs)
        row.insert(row.end(), seg.samples, seg.values[r]);
    return row;
}

TEST(Predictor, UntrainedReportsUntrained)
{
    WaveletNeuralPredictor p;
    EXPECT_FALSE(p.trained());
    EXPECT_EQ(p.traceLength(), 0u);
}

TEST(Predictor, TrainSetsMetadata)
{
    auto d = makeData(40, 8, 64);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);
    EXPECT_TRUE(p.trained());
    EXPECT_EQ(p.traceLength(), 64u);
    EXPECT_EQ(p.selectedCoefficients().size(), 16u);
}

TEST(Predictor, PredictsTraceOfCorrectLength)
{
    auto d = makeData(40, 8, 128);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);
    auto t = p.predictTrace(d.test[0]);
    EXPECT_EQ(t.size(), 128u);
}

TEST(Predictor, BatchedPredictionBitIdenticalToScalar)
{
    // The exploration sweep scores every design point through the
    // lattice driver; its golden byte-stability rests on the driver
    // computing exactly what the predictor's definition computes.
    auto d = makeData(40, 8, 64);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);

    // Mix of test and train points, enough to span several internal
    // blocks of the batched path.
    std::vector<DesignPoint> pts;
    for (int rep = 0; rep < 40; ++rep)
        for (const auto &q : d.test)
            pts.push_back(q);
    auto batch = p.predictTraces(pts);
    ASSERT_EQ(batch.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        EXPECT_EQ(batch[i], naiveTrace(p, pts[i])) << "point " << i;

    EXPECT_TRUE(p.predictTraces({}).empty());
}

/** A smooth nonlinear trace family over any number of dimensions. */
std::vector<double>
latticeTrace(const std::vector<double> &norm, std::size_t n)
{
    double base = 1.0;
    for (std::size_t k = 0; k < norm.size(); ++k)
        base += 0.3 * static_cast<double>(k + 1) * norm[k] * norm[k];
    double amp = 0.2 + 0.6 * norm[0];
    std::vector<double> t(n);
    for (std::size_t i = 0; i < n; ++i) {
        double phase = static_cast<double>(i) / static_cast<double>(n);
        t[i] = base + amp * std::sin(2.0 * M_PI * 2.0 * phase) +
               (phase > 0.5 ? 0.5 * norm.back() : 0.0);
    }
    return t;
}

/** Train on @p points of @p space with the latticeTrace family. */
WaveletNeuralPredictor
trainLattice(const DesignSpace &space, const std::vector<DesignPoint> &points,
             PredictorOptions opts = {}, std::size_t len = 32)
{
    std::vector<std::vector<double>> traces;
    for (const auto &p : points)
        traces.push_back(latticeTrace(space.normalize(p), len));
    WaveletNeuralPredictor pred(opts);
    pred.train(space, points, traces);
    return pred;
}

/** predictTraces and predictTrace at @p pts against naiveTrace. */
void
expectBatchedMatchesScalar(const WaveletNeuralPredictor &p,
                           const std::vector<DesignPoint> &pts)
{
    auto batch = p.predictTraces(pts);
    ASSERT_EQ(batch.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        auto expected = naiveTrace(p, pts[i]);
        EXPECT_EQ(batch[i], expected) << "point " << i;
        EXPECT_EQ(p.predictTrace(pts[i]), expected) << "point " << i;
    }
}

/** Units across a predictor's RBF coefficient models. */
std::size_t
rbfUnits(const WaveletNeuralPredictor &p)
{
    std::size_t units = 0;
    for (const auto &m : p.coefficientModels())
        units += dynamic_cast<const RbfNetwork &>(*m).units().size();
    return units;
}

std::uint64_t
counter(const std::string &name)
{
    return metricsRegistry().snapshot().counterOr(name);
}

TEST(Predictor, LatticeFullCrossProductMatchesScalar)
{
    DesignSpace space;
    space.addParameter({"a", {1, 2, 4}, {}});
    space.addParameter({"b", {10, 20, 30, 40}, {}});
    space.addParameter({"c", {0, 1}, {}});
    space.addParameter({"d", {3, 5, 7, 9, 11}, {}});
    Rng rng(11);
    auto train = randomSample(space, 40, rng);
    auto p = trainLattice(space, train);
    ASSERT_GT(rbfUnits(p), 0u);

    std::vector<DesignPoint> all;
    for (std::size_t i = 0; i < space.trainSpaceSize(); ++i)
        all.push_back(space.pointFromFlatTrainIndex(i));
    expectBatchedMatchesScalar(p, all);
}

TEST(Predictor, OffLevelPointsThrow)
{
    auto d = makeData(40, 8, 64);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);
    // Fetch width 3 lies between the training levels 2 and 4, and a
    // point with one coordinate too few has no level in the last
    // dimension: neither names a lattice point, so neither is
    // predicted, even behind valid points in the same batch.
    DesignPoint offLevel = d.test[0];
    offLevel[FetchWidth] = 3;
    DesignPoint truncated = d.test[0];
    truncated.pop_back();
    for (const DesignPoint &bad : {offLevel, truncated}) {
        const std::string why = d.space.validationError(bad);
        ASSERT_FALSE(why.empty());
        std::vector<DesignPoint> pts = d.test;
        pts.push_back(bad);
        try {
            p.predictTraces(pts);
            ADD_FAILURE() << "predictTraces accepted " << why;
        } catch (const std::invalid_argument &e) {
            EXPECT_EQ(e.what(), why);
        }
        EXPECT_THROW(p.predictTrace(bad), std::invalid_argument);
    }
}

TEST(Predictor, LatticeOneDimensionalSpace)
{
    // One dimension: the prefix over dims 0..D-2 is empty.
    DesignSpace space;
    space.addParameter({"only", {1, 2, 3, 5, 8, 13}, {}});
    std::vector<DesignPoint> all;
    for (std::size_t i = 0; i < space.trainSpaceSize(); ++i)
        all.push_back(space.pointFromFlatTrainIndex(i));
    std::vector<DesignPoint> train = all;
    train.insert(train.end(), all.begin(), all.end());
    auto p = trainLattice(space, train);
    ASSERT_GT(rbfUnits(p), 0u);
    expectBatchedMatchesScalar(p, all);
}

TEST(Predictor, PredictTracesPublishesSweepCounters)
{
    auto d = makeData(40, 8, 64);
    WaveletNeuralPredictor clamped;
    clamped.train(d.space, d.train, d.trainTraces);
    PredictorOptions raw;
    raw.clampToTrainingRange = false;
    WaveletNeuralPredictor unclamped(raw);
    unclamped.train(d.space, d.train, d.trainTraces);

    std::vector<DesignPoint> pts;
    for (std::size_t i = 0; i < d.space.trainSpaceSize(); i += 131)
        pts.push_back(d.space.pointFromFlatTrainIndex(i));
    const std::size_t units = rbfUnits(clamped);
    auto [lo, hi] = clamped.trainingRange();
    double margin = 0.1 * (hi - lo);
    std::uint64_t outside = 0;
    for (const auto &t : unclamped.predictTraces(pts))
        for (double v : t)
            outside += v < lo - margin || v > hi + margin;

    const std::uint64_t terms = counter("predict.rbf_terms");
    const std::uint64_t rows = counter("predict.rbf_rows");
    const std::uint64_t clamps = counter("predict.clamped_values");
    clamped.predictTraces(pts);
    EXPECT_EQ(counter("predict.rbf_terms") - terms, pts.size() * units);
    EXPECT_EQ(counter("predict.rbf_rows") - rows, pts.size());
    EXPECT_EQ(counter("predict.clamped_values") - clamps, outside);
    EXPECT_GT(outside, 0u);
}

/**
 * predictTraces at the flat indices @p flat of the predictor's space,
 * row by row against naiveTrace at the same points.
 */
void
expectLatticeTracesMatchScalar(const WaveletNeuralPredictor &p,
                               const std::vector<std::size_t> &flat)
{
    std::vector<DesignPoint> pts;
    for (std::size_t i : flat)
        pts.push_back(p.designSpace().pointFromFlatTrainIndex(i));
    auto traces = p.predictTraces(pts);
    ASSERT_EQ(traces.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        EXPECT_EQ(traces[i], naiveTrace(p, pts[i])) << "flat index "
                                                    << flat[i];
}

std::vector<std::size_t>
flatWalk(const DesignSpace &space, std::size_t step)
{
    std::vector<std::size_t> flat;
    for (std::size_t i = 0; i < space.trainSpaceSize(); i += step)
        flat.push_back(i);
    return flat;
}

TEST(Predictor, LatticeTracesMatchScalarOnPaperSpaceWalk)
{
    // A strided walk spans several internal blocks; the non-RBF models
    // run predictMany on normalised rows and the orthonormal transform
    // takes the generic inverse.
    auto d = makeData(40, 8, 64);
    std::vector<std::size_t> walk = flatWalk(d.space, 89);
    ASSERT_GT(walk.size(), 256u);
    for (CoefficientModel model :
         {CoefficientModel::Rbf, CoefficientModel::Linear,
          CoefficientModel::GlobalMean}) {
        PredictorOptions opts;
        opts.model = model;
        WaveletNeuralPredictor p(opts);
        p.train(d.space, d.train, d.trainTraces);
        expectLatticeTracesMatchScalar(p, walk);
    }
    PredictorOptions ortho;
    ortho.paperHaar = false;
    ortho.mother = MotherWavelet::Daubechies4;
    WaveletNeuralPredictor p(ortho);
    p.train(d.space, d.train, d.trainTraces);
    expectLatticeTracesMatchScalar(p, walk);
}

TEST(Predictor, LatticeTracesNineLevelDimension)
{
    // The unit pool's factor table has no level cap: a 9-level dimension
    // runs the RBF kernel like any other.
    DesignSpace space;
    std::vector<double> many;
    for (std::size_t i = 0; i < 9; ++i)
        many.push_back(static_cast<double>(i));
    space.addParameter({"wide", many, {}});
    space.addParameter({"b", {1, 2, 3}, {}});
    Rng rng(3);
    auto p = trainLattice(space, randomSample(space, 30, rng));
    ASSERT_GT(rbfUnits(p), 0u);
    const std::uint64_t evaluated = counter("predict.rbf_terms");
    expectLatticeTracesMatchScalar(p, flatWalk(space, 1));
    EXPECT_GT(counter("predict.rbf_terms"), evaluated);
}

TEST(Predictor, EvaluatorSharesUnitsAcrossPredictors)
{
    // Predictors trained on one design matrix share RBF units: the tree
    // root and the splits their trees agree on. The offset family grows
    // the base family's trees with running sums a thousand times
    // larger, and goes first, so nothing of one predictor's sums may
    // carry over to a later predictor. The wide predictor keeps the
    // base family's centres and changes every radius. The last family
    // grows different trees below the root.
    DesignSpace space = DesignSpace::paper();
    Rng rng(5);
    const auto points = bestLatinHypercube(space, 40, 4, rng);
    const std::size_t len = 32;
    auto family = [&](auto trace) {
        std::vector<std::vector<double>> traces;
        for (const auto &p : points)
            traces.push_back(trace(space.normalize(p)));
        return traces;
    };
    auto base = family([&](const std::vector<double> &n) {
        return latticeTrace(n, len);
    });
    auto offset = family([&](const std::vector<double> &n) {
        auto t = latticeTrace(n, len);
        for (double &v : t)
            v += 1e3;
        return t;
    });
    auto other = family([&](const std::vector<double> &n) {
        return syntheticTrace(n, len);
    });
    PredictorOptions wideOpts;
    wideOpts.rbf.radiusScale = 2.0;
    std::vector<WaveletNeuralPredictor> preds(4);
    preds[2] = WaveletNeuralPredictor(wideOpts);
    preds[0].train(space, points, offset);
    preds[1].train(space, points, base);
    preds[2].train(space, points, base);
    preds[3].train(space, points, other);
    std::vector<const WaveletNeuralPredictor *> ptrs;
    std::size_t units = 0;
    for (const auto &p : preds) {
        ptrs.push_back(&p);
        units += rbfUnits(p);
    }

    // Consecutive flat indices, so most neighbouring rows differ only
    // in the last dimension: three full blocks and a ragged tail.
    const std::size_t block = TraceEvaluator::kBlock;
    const std::size_t n = 3 * block + 5;
    const std::size_t dims = space.dimensions();
    std::vector<std::size_t> flat, idx(n * dims);
    for (std::size_t i = 0; i < n; ++i) {
        flat.push_back(40000 + i);
        space.trainIndicesFromFlat(flat[i], idx.data() + i * dims);
    }

    const char *const names[] = {"predict.rbf_terms", "predict.rbf_rows"};
    std::vector<std::uint64_t> before;
    for (const char *name : names)
        before.push_back(counter(name));
    TraceEvaluator ev(ptrs);
    TraceEvaluator::Workspace ws(ev);
    for (std::size_t b0 = 0; b0 < n; b0 += block) {
        const std::size_t m = std::min(block, n - b0);
        ws.predict(idx.data() + b0 * dims, m);
        for (std::size_t p = 0; p < preds.size(); ++p) {
            const std::vector<TraceSegment> &segs = ws.segments(p);
            for (std::size_t r = 0; r < m; ++r)
                EXPECT_EQ(expandRow(segs, r),
                          naiveTrace(preds[p], space.pointFromFlatTrainIndex(
                                                   flat[b0 + r])))
                    << "predictor " << p << " flat index " << flat[b0 + r];
        }
    }
    ws.publish();
    EXPECT_EQ(counter(names[0]) - before[0], n * units);
    EXPECT_EQ(counter(names[1]) - before[1], n);
}

TEST(Predictor, SegmentsMatchOracleAndCountClampsAlike)
{
    // Every predictor the sweep can meet: sparse paper-Haar with the
    // clamp on and off, all coefficients, a non-RBF model, and the
    // orthonormal transforms, whose segments are one sample each.
    // Segments and predictTraces match naiveTrace by value, and count
    // the samples its clamp moves.
    auto d = makeData(24, 4, 64, 11);
    std::vector<PredictorOptions> variants(7);
    variants[0].coefficients = 8;
    variants[1].coefficients = 8;
    variants[1].clampToTrainingRange = false;
    variants[2].coefficients = 64;
    variants[3].coefficients = 5;
    variants[3].model = CoefficientModel::Linear;
    variants[4].coefficients = 8;
    variants[4].paperHaar = false;
    variants[4].mother = MotherWavelet::Daubechies4;
    variants[5].coefficients = 8;
    variants[5].paperHaar = false;
    variants[6].coefficients = 3;
    variants[6].selection = SelectionScheme::Order;

    const std::size_t dims = d.space.dimensions();
    const std::size_t block = TraceEvaluator::kBlock;
    std::vector<std::size_t> walk = flatWalk(d.space, 997);
    std::vector<std::size_t> idx(walk.size() * dims);
    std::vector<DesignPoint> pts;
    for (std::size_t i = 0; i < walk.size(); ++i) {
        d.space.trainIndicesFromFlat(walk[i], idx.data() + i * dims);
        pts.push_back(d.space.pointFromFlatTrainIndex(walk[i]));
    }
    std::uint64_t clampedSomewhere = 0;
    for (std::size_t v = 0; v < variants.size(); ++v) {
        WaveletNeuralPredictor pred(variants[v]);
        pred.train(d.space, d.train, d.trainTraces);
        std::uint64_t oracleCount = 0;
        std::vector<std::vector<double>> oracle;
        for (const DesignPoint &pt : pts)
            oracle.push_back(naiveTrace(pred, pt, &oracleCount));

        TraceEvaluator ev({&pred});
        TraceEvaluator::Workspace ws(ev);
        std::uint64_t before = counter("predict.clamped_values");
        for (std::size_t b0 = 0; b0 < walk.size(); b0 += block) {
            const std::size_t m = std::min(block, walk.size() - b0);
            ws.predict(idx.data() + b0 * dims, m);
            const std::vector<TraceSegment> &segs = ws.segments(0);
            for (std::size_t r = 0; r < m; ++r)
                ASSERT_EQ(expandRow(segs, r), oracle[b0 + r])
                    << "variant " << v << " row " << b0 + r;
        }
        ws.publish();
        EXPECT_EQ(counter("predict.clamped_values") - before, oracleCount)
            << "variant " << v;

        before = counter("predict.clamped_values");
        EXPECT_EQ(pred.predictTraces(pts), oracle) << "variant " << v;
        EXPECT_EQ(counter("predict.clamped_values") - before, oracleCount)
            << "variant " << v;
        if (!variants[v].clampToTrainingRange) {
            EXPECT_EQ(oracleCount, 0u);
        }
        clampedSomewhere += oracleCount;
    }
    // The walk reaches design-space corners the training set does not.
    EXPECT_GT(clampedSomewhere, 0u);
}

/** Bit patterns of @p v. */
std::vector<std::uint64_t>
bitsOf(const std::vector<double> &v)
{
    std::vector<std::uint64_t> bits(v.size());
    std::memcpy(bits.data(), v.data(), v.size() * sizeof(double));
    return bits;
}

/** Every shape of predictor whose segments a kernel variant computes:
 *  sparse and full paper Haar with the clamp on and off, and an
 *  orthonormal transform, whose segments are one sample each. */
std::vector<PredictorOptions>
kernelShapes()
{
    std::vector<PredictorOptions> shapes(5);
    shapes[0].coefficients = 8;
    shapes[1].coefficients = 8;
    shapes[1].clampToTrainingRange = false;
    shapes[2].coefficients = 64;
    shapes[3].coefficients = 64;
    shapes[3].clampToTrainingRange = false;
    shapes[4].coefficients = 8;
    shapes[4].paperHaar = false;
    shapes[4].mother = MotherWavelet::Daubechies4;
    return shapes;
}

/** Blocks of 1, 15, 17, 63 and 64 rows: below, around and at the
 *  vector widths and the 16-row groups, and a full block. */
const std::vector<std::size_t> kKernelBlocks = {1, 15, 17, 63, 64};

/** Level indices of random lattice rows, one per row of kKernelBlocks. */
std::vector<std::size_t>
randomLatticeRows(const DesignSpace &space)
{
    std::size_t rows = 0;
    for (std::size_t n : kKernelBlocks)
        rows += n;
    Rng rng(0x5eed);
    std::vector<std::size_t> idx(rows * space.dimensions());
    for (std::size_t r = 0; r < rows; ++r)
        space.trainIndicesFromFlat(rng.below(space.trainSpaceSize()),
                                   idx.data() + r * space.dimensions());
    return idx;
}

/** Workspace::segments run as one variant over kKernelBlocks. */
struct SegmentKernelRun
{
    std::vector<std::vector<double>> rows; //!< each row, expanded
    std::uint64_t clamped = 0;             //!< samples clamped
};

SegmentKernelRun
runSegmentKernel(const WaveletNeuralPredictor &pred,
                 const std::vector<std::size_t> &idx, SimdVariant variant)
{
    const std::size_t dims = pred.designSpace().dimensions();
    TraceEvaluator ev({&pred});
    TraceEvaluator::Workspace ws(ev);
    SegmentKernelRun run;
    const std::uint64_t before = counter("predict.clamped_values");
    std::size_t row = 0;
    for (std::size_t n : kKernelBlocks) {
        ws.predict(idx.data() + row * dims, n);
        const std::vector<TraceSegment> &segs = ws.segments(0, variant);
        for (std::size_t r = 0; r < n; ++r)
            run.rows.push_back(expandRow(segs, r));
        row += n;
    }
    ws.publish();
    run.clamped = counter("predict.clamped_values") - before;
    return run;
}

TEST(Predictor, SegmentKernelBaselineMatchesOracle)
{
    // Twelve training points: random rows leave their range under every
    // shape with the clamp on, sparse segments included.
    auto d = makeData(12, 4, 64, 11);
    const std::vector<std::size_t> idx = randomLatticeRows(d.space);
    const std::size_t dims = d.space.dimensions();
    for (const PredictorOptions &opts : kernelShapes()) {
        WaveletNeuralPredictor pred(opts);
        pred.train(d.space, d.train, d.trainTraces);
        SegmentKernelRun run =
            runSegmentKernel(pred, idx, SimdVariant::Baseline);
        std::uint64_t oracleCount = 0;
        for (std::size_t r = 0; r < run.rows.size(); ++r) {
            std::vector<std::size_t> levels(idx.begin() + r * dims,
                                            idx.begin() + (r + 1) * dims);
            ASSERT_EQ(run.rows[r],
                      naiveTrace(pred,
                                 d.space.pointFromTrainIndices(levels),
                                 &oracleCount))
                << "row " << r;
        }
        EXPECT_EQ(run.clamped, oracleCount);
        if (!opts.clampToTrainingRange) {
            EXPECT_EQ(oracleCount, 0u);
        } else {
            // Random rows reach corners the training set does not.
            EXPECT_GT(oracleCount, 0u);
        }
    }
}

TEST(Predictor, SegmentKernelAvx2MatchesBaselineBitForBit)
{
    if (!simdVariantSupported(SimdVariant::Avx2))
        GTEST_SKIP() << "this CPU has no AVX2";
    // Twelve training points: random rows leave their range under every
    // shape with the clamp on, sparse segments included.
    auto d = makeData(12, 4, 64, 11);
    const std::vector<std::size_t> idx = randomLatticeRows(d.space);
    for (const PredictorOptions &opts : kernelShapes()) {
        WaveletNeuralPredictor pred(opts);
        pred.train(d.space, d.train, d.trainTraces);
        SegmentKernelRun base =
            runSegmentKernel(pred, idx, SimdVariant::Baseline);
        SegmentKernelRun avx2 = runSegmentKernel(pred, idx, SimdVariant::Avx2);
        ASSERT_EQ(avx2.rows.size(), base.rows.size());
        for (std::size_t r = 0; r < base.rows.size(); ++r)
            ASSERT_EQ(bitsOf(avx2.rows[r]), bitsOf(base.rows[r]))
                << "row " << r;
        EXPECT_EQ(avx2.clamped, base.clamped);
    }
}

TEST(Predictor, RetrainWarmKeepsSelectionFrozen)
{
    auto d = makeData(30, 8, 64);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);
    auto selection = p.selectedCoefficients();

    // Grow the training set (fold in the test points, as the
    // explorer's refinement loop does) and warm-start retrain: the
    // coefficient selection must be byte-identical, the models refit.
    auto points = d.train;
    auto traces = d.trainTraces;
    for (std::size_t i = 0; i < d.test.size(); ++i) {
        points.push_back(d.test[i]);
        traces.push_back(d.testTraces[i]);
    }
    p.retrain(d.space, points, traces);
    EXPECT_EQ(p.selectedCoefficients(), selection);
    EXPECT_EQ(p.traceLength(), 64u);

    // Sanity: the warm-retrained model still predicts the family it
    // has now fully seen (not a degenerate refit).
    double mse = 0.0;
    for (std::size_t i = 0; i < d.test.size(); ++i)
        mse += msePercent(d.testTraces[i], p.predictTrace(d.test[i]));
    EXPECT_LT(mse / static_cast<double>(d.test.size()), 20.0);
}

TEST(Predictor, RetrainUntrainedFallsBackToFullTrain)
{
    auto d = makeData(30, 4, 64);
    WaveletNeuralPredictor cold;
    cold.retrain(d.space, d.train, d.trainTraces);
    EXPECT_TRUE(cold.trained());

    WaveletNeuralPredictor fresh;
    fresh.train(d.space, d.train, d.trainTraces);
    // Identical outcome: retrain-from-cold is exactly train().
    for (const auto &q : d.test)
        EXPECT_EQ(cold.predictTrace(q), fresh.predictTrace(q));
}

TEST(Predictor, RetrainNewLengthReselects)
{
    auto d64 = makeData(30, 4, 64);
    WaveletNeuralPredictor p;
    p.train(d64.space, d64.train, d64.trainTraces);

    auto d128 = makeData(30, 4, 128, 11);
    p.retrain(d128.space, d128.train, d128.trainTraces);
    EXPECT_EQ(p.traceLength(), 128u);
    EXPECT_EQ(p.predictTrace(d128.test[0]).size(), 128u);
}

TEST(Predictor, AccurateOnSmoothFamily)
{
    auto d = makeData(80, 16, 128);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);
    EXPECT_LT(medianTestMse(p, d), 6.0); // MSE(%) median in paper band
}

TEST(Predictor, BeatsGlobalMeanBaseline)
{
    auto d = makeData(80, 16, 128);
    WaveletNeuralPredictor rbf;
    rbf.train(d.space, d.train, d.trainTraces);

    PredictorOptions mean_opts;
    mean_opts.model = CoefficientModel::GlobalMean;
    WaveletNeuralPredictor mean(mean_opts);
    mean.train(d.space, d.train, d.trainTraces);

    EXPECT_LT(medianTestMse(rbf, d), 0.7 * medianTestMse(mean, d));
}

TEST(Predictor, BeatsLinearOnNonlinearFamily)
{
    auto d = makeData(120, 20, 128, 11);
    WaveletNeuralPredictor rbf;
    rbf.train(d.space, d.train, d.trainTraces);

    PredictorOptions lin_opts;
    lin_opts.model = CoefficientModel::Linear;
    WaveletNeuralPredictor lin(lin_opts);
    lin.train(d.space, d.train, d.trainTraces);

    // Exponential + interaction + step structure: RBF must win.
    EXPECT_LT(medianTestMse(rbf, d), medianTestMse(lin, d));
}

TEST(Predictor, MoreCoefficientsNoWorse)
{
    auto d = makeData(80, 16, 128, 13);
    double prev = 1e9;
    for (std::size_t k : {4u, 16u, 64u}) {
        PredictorOptions opts;
        opts.coefficients = k;
        WaveletNeuralPredictor p(opts);
        p.train(d.space, d.train, d.trainTraces);
        double mse = medianTestMse(p, d);
        EXPECT_LT(mse, prev * 1.5) << k; // no catastrophic regression
        prev = std::min(prev, mse);
    }
}

TEST(Predictor, MagnitudeSelectionBeatsOrderOnLocalizedBurst)
{
    // A family whose energy sits in a short, large burst: the burst is
    // carried by fine-scale detail coefficients which order-based
    // (coarse-first) selection misses entirely.
    DesignSpace space = DesignSpace::paper();
    Rng rng(17);
    auto train = bestLatinHypercube(space, 60, 4, rng);
    auto test = randomTestSample(space, 12, rng);
    auto burst_trace = [&](const DesignPoint &p) {
        auto n = space.normalize(p);
        std::vector<double> t(128, 1.0 + 0.2 * n[L2Size]);
        double height = 2.0 + 4.0 * n[FetchWidth];
        for (std::size_t i = 100; i < 104; ++i)
            t[i] += height;
        return t;
    };
    std::vector<std::vector<double>> train_traces, test_traces;
    for (const auto &p : train)
        train_traces.push_back(burst_trace(p));
    for (const auto &p : test)
        test_traces.push_back(burst_trace(p));

    PredictorOptions mag, ord;
    mag.selection = SelectionScheme::Magnitude;
    ord.selection = SelectionScheme::Order;
    mag.coefficients = ord.coefficients = 8;
    WaveletNeuralPredictor pm(mag), po(ord);
    pm.train(space, train, train_traces);
    po.train(space, train, train_traces);

    auto median_mse = [&](const WaveletNeuralPredictor &pred) {
        std::vector<double> mses;
        for (std::size_t i = 0; i < test.size(); ++i)
            mses.push_back(msePercent(test_traces[i],
                                      pred.predictTrace(test[i])));
        return boxplot(mses).median;
    };
    EXPECT_LT(median_mse(pm), median_mse(po));
}

TEST(Predictor, SelectedCoefficientsRespectK)
{
    auto d = makeData(30, 4, 64);
    PredictorOptions opts;
    opts.coefficients = 5;
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    EXPECT_EQ(p.selectedCoefficients().size(), 5u);
}

TEST(Predictor, KLargerThanTraceClamped)
{
    auto d = makeData(30, 4, 32);
    PredictorOptions opts;
    opts.coefficients = 999;
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    EXPECT_EQ(p.selectedCoefficients().size(), 32u);
}

TEST(Predictor, PredictCoefficientsSparse)
{
    auto d = makeData(30, 4, 64);
    PredictorOptions opts;
    opts.coefficients = 4;
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    auto coeffs = naiveCoefficients(p, d.test[0]);
    std::size_t nonzero = 0;
    for (double c : coeffs)
        if (c != 0.0)
            ++nonzero;
    EXPECT_LE(nonzero, 4u);
}

TEST(Predictor, OrthonormalWaveletAlsoWorks)
{
    auto d = makeData(60, 12, 64, 19);
    PredictorOptions opts;
    opts.paperHaar = false;
    opts.mother = MotherWavelet::Daubechies4;
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    EXPECT_LT(medianTestMse(p, d), 5.0);
}

TEST(Predictor, ImportanceIdentifiesDrivingParameters)
{
    auto d = makeData(100, 10, 64, 23);
    WaveletNeuralPredictor p;
    p.train(d.space, d.train, d.trainTraces);
    auto by_freq = p.importanceByFrequency();
    ASSERT_EQ(by_freq.size(), d.space.dimensions());
    // The family is driven by L2 size, DL1 size, fetch width, ROB size;
    // IQ size plays no role. L2 must rank above IQ.
    EXPECT_GT(by_freq[L2Size], by_freq[IqSize]);
}

TEST(Predictor, ImportanceEmptyForNonRbfModels)
{
    auto d = makeData(30, 4, 32);
    PredictorOptions opts;
    opts.model = CoefficientModel::Linear;
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    auto imp = p.importanceByOrder();
    double total = 0.0;
    for (double v : imp)
        total += v;
    EXPECT_DOUBLE_EQ(total, 0.0);
}

TEST(Predictor, ClampKeepsPredictionsInTrainingRange)
{
    auto d = makeData(60, 16, 64, 31);
    WaveletNeuralPredictor p; // clamp on by default
    p.train(d.space, d.train, d.trainTraces);

    double lo = d.trainTraces[0][0], hi = lo;
    for (const auto &t : d.trainTraces)
        for (double v : t) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    double margin = 0.1 * (hi - lo);
    for (const auto &pt : d.test) {
        for (double v : p.predictTrace(pt)) {
            EXPECT_GE(v, lo - margin - 1e-12);
            EXPECT_LE(v, hi + margin + 1e-12);
        }
    }
}

TEST(Predictor, ClampCanBeDisabled)
{
    auto d = makeData(40, 8, 64, 33);
    PredictorOptions opts;
    opts.clampToTrainingRange = false;
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    // Merely verify it still predicts sensibly without the clamp.
    auto t = p.predictTrace(d.test[0]);
    EXPECT_EQ(t.size(), 64u);
    for (double v : t)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(Predictor, DeterministicTraining)
{
    auto d = makeData(40, 6, 64);
    WaveletNeuralPredictor a, b;
    a.train(d.space, d.train, d.trainTraces);
    b.train(d.space, d.train, d.trainTraces);
    for (const auto &pt : d.test) {
        auto ta = a.predictTrace(pt);
        auto tb = b.predictTrace(pt);
        for (std::size_t i = 0; i < ta.size(); ++i)
            ASSERT_DOUBLE_EQ(ta[i], tb[i]);
    }
}

class PredictorCoeffSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PredictorCoeffSweep, ReconstructionErrorBounded)
{
    auto d = makeData(60, 10, 128, 29);
    PredictorOptions opts;
    opts.coefficients = GetParam();
    WaveletNeuralPredictor p(opts);
    p.train(d.space, d.train, d.trainTraces);
    EXPECT_LT(medianTestMse(p, d), 12.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperSweep, PredictorCoeffSweep,
                         ::testing::Values(16, 32, 64, 96, 128));

} // anonymous namespace
} // namespace wavedyn
