#include "core/predictor.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "telemetry/telemetry.hh"
#include "wavelet/haar.hh"

namespace wavedyn
{

namespace
{

/** predictTraces' counters, interned once. */
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

std::vector<double>
WaveletNeuralPredictor::predictCoefficients(const DesignPoint &point) const
{
    assert(trained());
    std::vector<double> coeffs(length, 0.0);
    auto norm = space.normalize(point);
    for (std::size_t s = 0; s < selected.size(); ++s)
        coeffs[selected[s]] = models[s]->predict(norm);
    return coeffs;
}

std::vector<double>
WaveletNeuralPredictor::predictTrace(const DesignPoint &point) const
{
    auto trace = fromCoefficients(predictCoefficients(point));
    if (opts.clampToTrainingRange) {
        double margin = 0.1 * (trainHi - trainLo);
        double lo = trainLo - margin;
        double hi = trainHi + margin;
        for (double &v : trace)
            v = std::min(std::max(v, lo), hi);
    }
    return trace;
}

std::vector<std::vector<double>>
WaveletNeuralPredictor::predictTraces(
    const std::vector<DesignPoint> &points) const
{
    assert(trained());
    if (points.empty())
        return {};

    double margin = 0.1 * (trainHi - trainLo);
    double lo = trainLo - margin;
    double hi = trainHi + margin;

    // The lattice kernel applies when every model is an RBF network
    // and every dimension fits its level tables: sweep, train and test
    // points all sit on training levels, so each unit's z^2 terms are
    // looked up per (dimension, level) instead of recomputed per point.
    const std::size_t dims = space.dimensions();
    std::vector<const RbfNetwork *> nets;
    bool lattice = dims > 0;
    for (std::size_t d = 0; d < dims; ++d)
        lattice = lattice &&
                  space.param(d).levels() <= RbfLatticeTable::kMaxLevels;
    for (const auto &m : models) {
        nets.push_back(dynamic_cast<const RbfNetwork *>(m.get()));
        lattice = lattice && nets.back() != nullptr;
    }
    std::vector<RbfLatticeTable> tables;
    if (lattice) {
        std::vector<std::vector<double>> levels(dims);
        for (std::size_t d = 0; d < dims; ++d)
            for (double v : space.param(d).trainLevels)
                levels[d].push_back(space.param(d).normalize(v));
        for (const RbfNetwork *net : nets)
            tables.push_back(net->latticeTable(levels));
    }

    // Process in blocks sized so the inputs and the per-model
    // prediction columns stay cache resident, and the assembly below
    // reuses one coefficient buffer plus an allocation-free inverse
    // transform — the per-point allocation churn of the scalar path
    // (fresh coefficient vector + one temporary per dyadic level
    // inside haarInverse) is what a sweep of 10^5-10^6 points cannot
    // afford. A block with a point off the training levels takes one
    // virtual predictMany per model on its normalised coordinates.
    constexpr std::size_t kBlock = 256;
    const bool fastHaar = opts.paperHaar;
    std::vector<std::vector<double>> out;
    out.reserve(points.size());
    std::vector<std::vector<double>> byModel(models.size());
    std::vector<double> coeffs(length, 0.0);
    std::vector<double> scratch(length);
    std::vector<std::uint8_t> levelIdx;
    RbfTermCounts terms;
    std::uint64_t clamped = 0;
    for (std::size_t b0 = 0; b0 < points.size(); b0 += kBlock) {
        std::size_t n = std::min(kBlock, points.size() - b0);
        bool onLattice = lattice;
        levelIdx.resize(n * dims);
        for (std::size_t r = 0; r < n && onLattice; ++r) {
            const DesignPoint &p = points[b0 + r];
            for (std::size_t c = 0; c < dims && onLattice; ++c) {
                const std::vector<double> &lv = space.param(c).trainLevels;
                auto it = std::find(lv.begin(), lv.end(), p[c]);
                onLattice = it != lv.end();
                levelIdx[r * dims + c] =
                    static_cast<std::uint8_t>(it - lv.begin());
            }
        }
        if (onLattice) {
            for (std::size_t s = 0; s < models.size(); ++s) {
                byModel[s].resize(n);
                nets[s]->predictLattice(tables[s], levelIdx.data(), n,
                                        byModel[s].data(), terms);
            }
        } else {
            Matrix x(n, dims);
            for (std::size_t r = 0; r < n; ++r) {
                const DesignPoint &p = points[b0 + r];
                for (std::size_t c = 0; c < dims; ++c)
                    x.at(r, c) = space.param(c).normalize(p[c]);
            }
            for (std::size_t s = 0; s < models.size(); ++s) {
                byModel[s] = models[s]->predictMany(x);
                if (nets[s])
                    terms.evaluated += n * nets[s]->units().size();
            }
        }

        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t s = 0; s < selected.size(); ++s)
                coeffs[selected[s]] = byModel[s][r];
            std::vector<double> trace;
            if (fastHaar) {
                trace.resize(length);
                haarInverseInto(coeffs.data(), length, trace.data(),
                                scratch.data());
            } else {
                trace = fromCoefficients(coeffs);
            }
            // Only the selected slots were written; zero them back so
            // the buffer is clean for the next point.
            for (std::size_t s = 0; s < selected.size(); ++s)
                coeffs[selected[s]] = 0.0;
            if (opts.clampToTrainingRange)
                for (double &v : trace) {
                    clamped += v < lo || v > hi;
                    v = std::min(std::max(v, lo), hi);
                }
            out.push_back(std::move(trace));
        }
    }

    // Observe-only: published once per call, so the kernel itself
    // keeps plain local counts and no atomics.
    const SweepCounters &ids = SweepCounters::get();
    MetricsRegistry &reg = metricsRegistry();
    reg.add(ids.rbfTerms, terms.evaluated);
    reg.add(ids.rbfTermsSkipped, terms.skipped);
    reg.add(ids.clamped, clamped);
    return out;
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
