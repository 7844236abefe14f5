#include "core/predictor.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "telemetry/telemetry.hh"
#include "wavelet/haar.hh"

namespace wavedyn
{

namespace
{

/** The prediction counters, interned once. */
struct SweepCounters
{
    MetricId rbfTerms;        //!< RBF unit terms computed
    MetricId rbfTermsSkipped; //!< unit terms skipped as negligible
    MetricId clamped;         //!< trace values clamped to the range

    static const SweepCounters &
    get()
    {
        static const SweepCounters c = [] {
            MetricsRegistry &reg = metricsRegistry();
            SweepCounters s;
            s.rbfTerms = reg.counter("predict.rbf_terms");
            s.rbfTermsSkipped = reg.counter("predict.rbf_terms_skipped");
            s.clamped = reg.counter("predict.clamped_values");
            return s;
        }();
        return c;
    }
};

} // anonymous namespace

WaveletNeuralPredictor::WaveletNeuralPredictor(PredictorOptions opts)
    : opts(opts)
{
}

std::vector<double>
WaveletNeuralPredictor::toCoefficients(
    const std::vector<double> &trace) const
{
    if (opts.paperHaar)
        return haarForward(trace);
    return WaveletTransform(opts.mother).forward(trace);
}

std::vector<double>
WaveletNeuralPredictor::fromCoefficients(std::vector<double> coeffs) const
{
    if (opts.paperHaar)
        return haarInverse(coeffs);
    return WaveletTransform(opts.mother).inverse(coeffs);
}

std::unique_ptr<RegressionModel>
WaveletNeuralPredictor::makeModel() const
{
    switch (opts.model) {
      case CoefficientModel::Rbf:
        return std::make_unique<RbfNetwork>(opts.rbf);
      case CoefficientModel::Linear:
        return std::make_unique<LinearModel>();
      case CoefficientModel::GlobalMean:
        return std::make_unique<GlobalMeanModel>();
    }
    return std::make_unique<RbfNetwork>(opts.rbf);
}

void
WaveletNeuralPredictor::train(const DesignSpace &space,
                              const std::vector<DesignPoint> &points,
                              const std::vector<std::vector<double>>
                                  &traces)
{
    trainImpl(space, points, traces, false);
}

void
WaveletNeuralPredictor::retrain(const DesignSpace &space,
                                const std::vector<DesignPoint> &points,
                                const std::vector<std::vector<double>>
                                    &traces)
{
    bool warm = trained() && !traces.empty() &&
                traces.front().size() == length;
    trainImpl(space, points, traces, warm);
}

void
WaveletNeuralPredictor::trainImpl(const DesignSpace &space,
                                  const std::vector<DesignPoint> &points,
                                  const std::vector<std::vector<double>>
                                      &traces,
                                  bool keepSelection)
{
    assert(points.size() == traces.size());
    assert(!points.empty());
    assert(isPowerOfTwo(traces.front().size()));
    assert(!keepSelection || traces.front().size() == length);

    this->space = space;
    length = traces.front().size();

    // Step 1: decompose every training trace.
    std::vector<std::vector<double>> coeff_sets;
    coeff_sets.reserve(traces.size());
    trainLo = traces.front().front();
    trainHi = trainLo;
    for (const auto &t : traces) {
        assert(t.size() == length);
        for (double v : t) {
            trainLo = std::min(trainLo, v);
            trainHi = std::max(trainHi, v);
        }
        coeff_sets.push_back(toCoefficients(t));
    }

    // Step 2: choose the modelled coefficient slots (or keep the
    // previous selection frozen on a warm start).
    if (!keepSelection) {
        std::size_t k = std::min(opts.coefficients, length);
        if (opts.selection == SelectionScheme::Magnitude)
            selected = selectByMeanMagnitude(coeff_sets, k);
        else
            selected = selectByOrder(length, k);
    }

    selectionWeight.assign(selected.size(), 0.0);
    for (std::size_t s = 0; s < selected.size(); ++s) {
        double acc = 0.0;
        for (const auto &c : coeff_sets)
            acc += std::fabs(c[selected[s]]);
        selectionWeight[s] = acc / static_cast<double>(coeff_sets.size());
    }

    // Step 3: one regression model per selected coefficient, all fed
    // the normalised design vector.
    Matrix x(points.size(), space.dimensions());
    for (std::size_t r = 0; r < points.size(); ++r) {
        auto norm = space.normalize(points[r]);
        for (std::size_t c = 0; c < norm.size(); ++c)
            x.at(r, c) = norm[c];
    }

    models.clear();
    models.reserve(selected.size());
    std::vector<double> y(points.size());
    for (std::size_t s = 0; s < selected.size(); ++s) {
        for (std::size_t r = 0; r < points.size(); ++r)
            y[r] = coeff_sets[r][selected[s]];
        auto model = makeModel();
        model->fit(x, y);
        models.push_back(std::move(model));
    }
}

/**
 * One prediction call, the only place coefficient models are
 * evaluated. Every point sits on training levels of the DesignSpace,
 * so the constructor gives each model its evaluator once per call: an
 * RBF network gets a lattice table, which looks up each unit's z^2
 * terms per (dimension, level) instead of recomputing them per point;
 * any other model gets one predictMany per block on normalised rows
 * read from a per-(dimension, level) table. Points arrive in blocks
 * sized so the inputs and the per-model prediction columns stay cache
 * resident; each block is predicted model by model, then assemble()
 * turns the columns into traces with one reused coefficient buffer and
 * an allocation-free inverse transform — a sweep of 10^5-10^6 points
 * cannot afford a fresh coefficient vector and one temporary per
 * dyadic level per point. The counters are kept locally and published
 * once per call.
 */
class WaveletNeuralPredictor::Batch
{
  public:
    static constexpr std::size_t kBlock = 256;

    explicit Batch(const WaveletNeuralPredictor &pred)
        : pred(pred), levels(pred.space.dimensions()),
          byModel(pred.models.size()), coeffs(pred.length, 0.0),
          scratch(pred.length)
    {
        const DesignSpace &space = pred.space;
        for (std::size_t d = 0; d < space.dimensions(); ++d)
            for (double v : space.param(d).trainLevels)
                levels[d].push_back(space.param(d).normalize(v));
        for (const auto &m : pred.models) {
            nets.push_back(dynamic_cast<const RbfNetwork *>(m.get()));
            tables.push_back(nets.back() ? nets.back()->latticeTable(levels)
                                         : RbfLatticeTable{});
        }
    }

    /** Predict @p n <= kBlock lattice rows (level indices, n x dims). */
    void
    predict(const std::size_t *levelIdx, std::size_t n)
    {
        const std::size_t dims = levels.size();
        Matrix x; // normalised rows, built for the first non-RBF model
        for (std::size_t s = 0; s < nets.size(); ++s) {
            if (nets[s]) {
                byModel[s].resize(n);
                nets[s]->predictLattice(tables[s], levelIdx, n,
                                        byModel[s].data(), terms);
                continue;
            }
            if (x.rows() == 0) {
                x = Matrix(n, dims);
                for (std::size_t r = 0; r < n; ++r)
                    for (std::size_t c = 0; c < dims; ++c)
                        x.at(r, c) = levels[c][levelIdx[r * dims + c]];
            }
            byModel[s] = pred.models[s]->predictMany(x);
        }
    }

    /**
     * The last block's @p n predictions as traces: scatter the
     * coefficients, inverse-transform, clamp. Writes n x length
     * doubles, row-major, to @p out.
     */
    void
    assemble(std::size_t n, double *out)
    {
        const std::size_t length = pred.length;
        const std::vector<std::size_t> &selected = pred.selected;
        const double margin = 0.1 * (pred.trainHi - pred.trainLo);
        const double lo = pred.trainLo - margin;
        const double hi = pred.trainHi + margin;
        for (std::size_t r = 0; r < n; ++r) {
            double *trace = out + r * length;
            for (std::size_t s = 0; s < selected.size(); ++s)
                coeffs[selected[s]] = byModel[s][r];
            if (pred.opts.paperHaar) {
                haarInverseInto(coeffs.data(), length, trace,
                                scratch.data());
            } else {
                std::vector<double> t = pred.fromCoefficients(coeffs);
                std::copy(t.begin(), t.end(), trace);
            }
            // Only the selected slots were written; zero them back so
            // the buffer is clean for the next point.
            for (std::size_t s = 0; s < selected.size(); ++s)
                coeffs[selected[s]] = 0.0;
            if (pred.opts.clampToTrainingRange)
                for (std::size_t i = 0; i < length; ++i) {
                    double &v = trace[i];
                    clamped += v < lo || v > hi;
                    v = std::min(std::max(v, lo), hi);
                }
        }
    }

    /** Add the call's counts to the metrics registry. */
    void
    publish() const
    {
        // Observe-only: the kernel keeps plain local counts, no atomics.
        const SweepCounters &ids = SweepCounters::get();
        MetricsRegistry &reg = metricsRegistry();
        reg.add(ids.rbfTerms, terms.evaluated);
        reg.add(ids.rbfTermsSkipped, terms.skipped);
        reg.add(ids.clamped, clamped);
    }

  private:
    const WaveletNeuralPredictor &pred;
    std::vector<std::vector<double>> levels; //!< [dim][level] normalised
    std::vector<const RbfNetwork *> nets;    //!< null for non-RBF models
    std::vector<RbfLatticeTable> tables;
    std::vector<std::vector<double>> byModel; //!< [model][block row]
    std::vector<double> coeffs;
    std::vector<double> scratch;
    RbfTermCounts terms;
    std::uint64_t clamped = 0;
};

void
WaveletNeuralPredictor::predictLatticeTraces(const std::size_t *levelIdx,
                                             std::size_t n,
                                             double *out) const
{
    assert(trained());
    Batch batch(*this);
    const std::size_t dims = space.dimensions();
    for (std::size_t b0 = 0; b0 < n; b0 += Batch::kBlock) {
        std::size_t m = std::min(Batch::kBlock, n - b0);
        batch.predict(levelIdx + b0 * dims, m);
        batch.assemble(m, out + b0 * length);
    }
    batch.publish();
}

std::vector<std::vector<double>>
WaveletNeuralPredictor::predictTraces(
    const std::vector<DesignPoint> &points) const
{
    assert(trained());
    // Parameter::levelIndex cannot report an off-level value, so every
    // point is checked before anything is predicted.
    const std::size_t dims = space.dimensions();
    std::vector<std::size_t> levelIdx(points.size() * dims);
    for (std::size_t r = 0; r < points.size(); ++r) {
        std::string invalid = space.validationError(points[r]);
        if (!invalid.empty())
            throw std::invalid_argument(invalid);
        for (std::size_t c = 0; c < dims; ++c)
            levelIdx[r * dims + c] =
                space.param(c).levelIndex(points[r][c]);
    }
    std::vector<double> traces(points.size() * length);
    predictLatticeTraces(levelIdx.data(), points.size(), traces.data());
    std::vector<std::vector<double>> out;
    out.reserve(points.size());
    for (std::size_t r = 0; r < points.size(); ++r)
        out.emplace_back(traces.begin() + r * length,
                         traces.begin() + (r + 1) * length);
    return out;
}

std::vector<double>
WaveletNeuralPredictor::predictTrace(const DesignPoint &point) const
{
    return predictTraces({point}).front();
}

namespace
{

std::vector<double>
weightedSpokes(const std::vector<std::unique_ptr<RegressionModel>> &models,
               const std::vector<double> &weights,
               bool by_order, std::size_t dims)
{
    std::vector<double> acc(dims, 0.0);
    double total = 0.0;
    for (std::size_t s = 0; s < models.size(); ++s) {
        const auto *rbf = dynamic_cast<const RbfNetwork *>(models[s].get());
        if (!rbf)
            continue;
        auto spokes = by_order ? rbf->seedTree().spokesByOrder()
                               : rbf->seedTree().spokesByFrequency();
        double w = weights[s];
        for (std::size_t d = 0; d < dims && d < spokes.size(); ++d)
            acc[d] += w * spokes[d];
        total += w;
    }
    if (total > 0.0)
        for (double &v : acc)
            v /= total;
    return acc;
}

} // anonymous namespace

std::vector<double>
WaveletNeuralPredictor::importanceByOrder() const
{
    if (!trained())
        return {};
    return weightedSpokes(models, selectionWeight, true,
                          space.dimensions());
}

std::vector<double>
WaveletNeuralPredictor::importanceByFrequency() const
{
    if (!trained())
        return {};
    return weightedSpokes(models, selectionWeight, false,
                          space.dimensions());
}

} // namespace wavedyn
