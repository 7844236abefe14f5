#include "core/predictor.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

#include "telemetry/telemetry.hh"
#include "util/simd.hh"
#include "wavelet/haar.hh"

namespace wavedyn
{

namespace
{

/** The prediction counters, interned once. */
struct SweepCounters
{
    MetricId rbfTerms; //!< RBF unit terms added
    MetricId rbfRows;  //!< lattice rows evaluated
    MetricId clamped;  //!< trace values clamped to the range
    std::size_t scoreAvx2; //!< gauge: 1 when the score kernels run AVX2

    static const SweepCounters &
    get()
    {
        static const SweepCounters c = [] {
            MetricsRegistry &reg = metricsRegistry();
            SweepCounters s;
            s.rbfTerms = reg.counter("predict.rbf_terms");
            s.rbfRows = reg.counter("predict.rbf_rows");
            s.clamped = reg.counter("predict.clamped_values");
            s.scoreAvx2 = reg.gauge("sweep.score_avx2");
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

namespace
{

/** The RBF coefficient models of @p preds, predictor by predictor. */
std::vector<const RbfNetwork *>
rbfModels(const std::vector<const WaveletNeuralPredictor *> &preds)
{
    std::vector<const RbfNetwork *> nets;
    for (const WaveletNeuralPredictor *p : preds)
        for (const auto &m : p->coefficientModels())
            if (const auto *net = dynamic_cast<const RbfNetwork *>(m.get()))
                nets.push_back(net);
    return nets;
}

/** Normalised coordinate of every training level, [dim][level]. */
std::vector<std::vector<double>>
normalisedLevels(const DesignSpace &space)
{
    std::vector<std::vector<double>> levels(space.dimensions());
    for (std::size_t d = 0; d < space.dimensions(); ++d)
        for (double v : space.param(d).trainLevels)
            levels[d].push_back(space.param(d).normalize(v));
    return levels;
}

} // anonymous namespace

TraceEvaluator::TraceEvaluator(
    std::vector<const WaveletNeuralPredictor *> predictors)
    : preds(std::move(predictors)), variant(bestSimdVariant()),
      levels(normalisedLevels(preds.front()->space)),
      pool(rbfModels(preds), levels)
{
    metricsRegistry().setGauge(SweepCounters::get().scoreAvx2,
                               variant == SimdVariant::Avx2 ? 1.0 : 0.0);
    std::size_t pooled = 0;
    for (const WaveletNeuralPredictor *p : preds) {
        assert(p->trained());
        assert(normalisedLevels(p->space) == levels);
        firstModel.push_back(columnOf.size());
        for (const auto &m : p->models) {
            if (dynamic_cast<const RbfNetwork *>(m.get())) {
                columnOf.push_back(pooled++);
            } else {
                columnOf.push_back(pool.networks() + others.size());
                others.push_back(m.get());
            }
        }

        SegmentPlan plan;
        if (p->opts.paperHaar) {
            plan.haar = haarSegmentPlan(p->length, p->selected);
        } else {
            plan.haar.registers = p->length;
            for (std::uint32_t t = 0; t < p->length; ++t)
                plan.haar.segments.push_back({t, 1});
        }
        plan.firstRegister = registerCount;
        registerCount += plan.haar.registers;
        std::vector<std::uint32_t> samples(plan.haar.registers, 0);
        for (const HaarSegmentPlan::Segment &seg : plan.haar.segments)
            samples[seg.reg] += seg.samples;
        for (std::uint32_t r = 0; r < samples.size(); ++r)
            if (samples[r] > 0)
                plan.covered.emplace_back(r, samples[r]);
        plans.push_back(std::move(plan));
    }
}

TraceEvaluator::Workspace::Workspace(const TraceEvaluator &evaluator)
    : ev(evaluator), scratch(evaluator.pool),
      columns(evaluator.columnOf.size() * kBlock),
      registers(evaluator.registerCount * kBlock),
      segs(evaluator.preds.size())
{
    for (std::size_t p = 0; p < ev.plans.size(); ++p) {
        const SegmentPlan &plan = ev.plans[p];
        for (const HaarSegmentPlan::Segment &seg : plan.haar.segments)
            segs[p].push_back(
                {registers.data() +
                     (plan.firstRegister + seg.reg) * kBlock,
                 seg.samples});
    }
}

void
TraceEvaluator::Workspace::predict(const std::size_t *levelIdx,
                                   std::size_t n)
{
    assert(n <= kBlock);
    rows = n;
    ev.pool.predict(scratch, levelIdx, n, columns.data(), kBlock, terms);
    if (ev.others.empty())
        return;
    const std::size_t dims = ev.levels.size();
    Matrix x(n, dims);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < dims; ++c)
            x.at(r, c) = ev.levels[c][levelIdx[r * dims + c]];
    double *col = columns.data() + ev.pool.networks() * kBlock;
    for (const RegressionModel *m : ev.others) {
        std::vector<double> y = m->predictMany(x);
        std::copy(y.begin(), y.end(), col);
        col += kBlock;
    }
}

void
TraceEvaluator::Workspace::inverseRows(std::size_t p, double *out)
{
    const WaveletNeuralPredictor &pred = *ev.preds[p];
    const std::size_t *column = ev.columnOf.data() + ev.firstModel[p];
    const WaveletTransform transform(pred.opts.mother);
    // Unmodelled coefficients stay zero; the selected ones are
    // overwritten row by row.
    std::vector<double> coeffs(pred.length, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t s = 0; s < pred.selected.size(); ++s)
            coeffs[pred.selected[s]] = columns[column[s] * kBlock + r];
        std::vector<double> trace = transform.inverse(coeffs);
        for (std::size_t t = 0; t < pred.length; ++t)
            out[t * kBlock + r] = trace[t];
    }
}

namespace
{

/** One call of Workspace::segments' kernel on a block's registers. */
struct SegmentJob
{
    /** The paper-Haar plan to run, or null when the registers already
     *  hold a full inverse. */
    const HaarSegmentPlan *haar = nullptr;
    const std::size_t *column = nullptr; //!< coefficient slot -> column
    const double *columns = nullptr;     //!< [column][kBlock]
    /** (register, samples) to clamp to [lo, hi], or null: no clamp. */
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> *covered =
        nullptr;
    double lo = 0.0;
    double hi = 0.0;
    double *reg = nullptr; //!< [register][kBlock]
    std::size_t rows = 0;
};

/**
 * The kernel's one body: the root register and every op of the Haar
 * plan, across the rows, then the clamp of every covered register.
 * Returns how many sample values the clamp moved, a register counting
 * once per sample it covers.
 */
inline std::uint64_t
runSegmentJob(const SegmentJob &job)
{
    constexpr std::size_t kBlock = TraceEvaluator::kBlock;
    const std::size_t rows = job.rows;
    double *reg = job.reg;
    if (job.haar) {
        auto coeff = [&](std::uint32_t slot) {
            return job.columns + job.column[slot] * kBlock;
        };
        const HaarSegmentPlan &plan = *job.haar;
        if (plan.rootSlot == HaarSegmentPlan::kNoSlot)
            std::fill(reg, reg + rows, 0.0);
        else
            std::copy(coeff(plan.rootSlot), coeff(plan.rootSlot) + rows,
                      reg);
        for (const HaarSegmentPlan::Op &op : plan.ops) {
            const double *a = reg + op.src * kBlock;
            const double *d = coeff(op.slot);
            double *o = reg + op.dst * kBlock;
            if (op.add)
                for (std::size_t r = 0; r < rows; ++r)
                    o[r] = a[r] + d[r];
            else
                for (std::size_t r = 0; r < rows; ++r)
                    o[r] = a[r] - d[r];
        }
    }
    if (!job.covered)
        return 0;
    // After every op: a register can be both a segment and the source
    // of a deeper split.
    const double lo = job.lo;
    const double hi = job.hi;
    std::uint64_t clamped = 0;
    for (const auto &[r, samples] : *job.covered) {
        double *values = reg + r * kBlock;
        // Counted in doubles, exact below 2^53, so the loop vectorises;
        // four partial counts keep it off one serial chain of adds.
        double outside[4] = {0.0, 0.0, 0.0, 0.0};
        auto clampOne = [&](double &v, double &count) {
            count += v < lo || v > hi ? 1.0 : 0.0;
            v = std::min(std::max(v, lo), hi);
        };
        std::size_t i = 0;
        for (; i + 4 <= rows; i += 4)
            for (std::size_t k = 0; k < 4; ++k)
                clampOne(values[i + k], outside[k]);
        for (; i < rows; ++i)
            clampOne(values[i], outside[0]);
        clamped += samples * static_cast<std::uint64_t>(
                                 outside[0] + outside[1] + outside[2] +
                                 outside[3]);
    }
    return clamped;
}

// The body's two entry points (util/simd.hh): the vector lanes run
// across rows, so both give the same bits.

std::uint64_t
runSegmentJobBaseline(const SegmentJob &job)
{
    return runSegmentJob(job);
}

#if WAVEDYN_HAVE_AVX2_VARIANT
WAVEDYN_AVX2_VARIANT std::uint64_t
runSegmentJobAvx2(const SegmentJob &job)
{
    return runSegmentJob(job);
}
#endif

} // anonymous namespace

const std::vector<TraceSegment> &
TraceEvaluator::Workspace::segments(std::size_t p,
                                    [[maybe_unused]] SimdVariant variant)
{
    assert(simdVariantSupported(variant));
    const WaveletNeuralPredictor &pred = *ev.preds[p];
    const SegmentPlan &plan = ev.plans[p];
    SegmentJob job;
    job.reg = registers.data() + plan.firstRegister * kBlock;
    job.rows = rows;
    if (pred.opts.paperHaar) {
        job.haar = &plan.haar;
        job.column = ev.columnOf.data() + ev.firstModel[p];
        job.columns = columns.data();
    } else {
        inverseRows(p, job.reg);
    }
    if (pred.opts.clampToTrainingRange) {
        const double margin = 0.1 * (pred.trainHi - pred.trainLo);
        job.covered = &plan.covered;
        job.lo = pred.trainLo - margin;
        job.hi = pred.trainHi + margin;
    }
#if WAVEDYN_HAVE_AVX2_VARIANT
    if (variant == SimdVariant::Avx2)
        clamped += runSegmentJobAvx2(job);
    else
#endif
        clamped += runSegmentJobBaseline(job);
    return segs[p];
}

void
TraceEvaluator::Workspace::publish()
{
    // Observe-only: the kernel keeps plain local counts, no atomics.
    const SweepCounters &ids = SweepCounters::get();
    MetricsRegistry &reg = metricsRegistry();
    reg.add(ids.rbfTerms, terms.terms);
    reg.add(ids.rbfRows, terms.rows);
    reg.add(ids.clamped, clamped);
    terms = {};
    clamped = 0;
}

std::vector<std::vector<double>>
WaveletNeuralPredictor::predictTraces(
    const std::vector<DesignPoint> &points) const
{
    assert(trained());
    const std::vector<std::size_t> levelIdx = space.trainIndicesOf(points);
    const std::size_t dims = space.dimensions();
    std::vector<std::vector<double>> out(points.size(),
                                         std::vector<double>(length));
    TraceEvaluator ev({this});
    TraceEvaluator::Workspace ws(ev);
    for (std::size_t b0 = 0; b0 < points.size();
         b0 += TraceEvaluator::kBlock) {
        const std::size_t m =
            std::min(TraceEvaluator::kBlock, points.size() - b0);
        ws.predict(levelIdx.data() + b0 * dims, m);
        const std::vector<TraceSegment> &segs = ws.segments(0);
        for (std::size_t r = 0; r < m; ++r) {
            double *sample = out[b0 + r].data();
            for (const TraceSegment &seg : segs)
                sample = std::fill_n(sample, seg.samples, seg.values[r]);
        }
    }
    ws.publish();
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
