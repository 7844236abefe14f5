/**
 * @file
 * The paper's primary contribution: the hybrid neuro-wavelet predictor
 * of workload dynamics (Section 2.3, Figure 6).
 *
 * Training (per benchmark, per metric domain):
 *   1. each training run's trace is decomposed by a discrete wavelet
 *      transform;
 *   2. the k most important coefficients are selected (magnitude-based
 *      ranking aggregated across training runs — Figure 7 shows the
 *      ranking is stable, which selectByMeanMagnitude exploits);
 *   3. one regression model per selected coefficient is fitted from the
 *      normalised 9-dimensional design vector to the coefficient value.
 *      The paper uses RBF networks with regression-tree-derived units;
 *      linear and global-mean models are provided as ablation baselines.
 *
 * Prediction at an unexplored design point: predict the k coefficients,
 * zero the rest, inverse-transform — the result is the full predicted
 * dynamics trace.
 */

#ifndef WAVEDYN_CORE_PREDICTOR_HH
#define WAVEDYN_CORE_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/design_space.hh"
#include "mlmodel/linear_model.hh"
#include "mlmodel/rbf_network.hh"
#include "util/simd.hh"
#include "wavelet/dwt.hh"
#include "wavelet/haar.hh"
#include "wavelet/selection.hh"

namespace wavedyn
{

/** Which regression family models each wavelet coefficient. */
enum class CoefficientModel
{
    Rbf,        //!< the paper's choice
    Linear,     //!< ablation baseline
    GlobalMean, //!< degenerate aggregate-only baseline
};

/** Predictor construction options. */
struct PredictorOptions
{
    std::size_t coefficients = 16; //!< k; the paper's sweet spot
    SelectionScheme selection = SelectionScheme::Magnitude;
    CoefficientModel model = CoefficientModel::Rbf;
    RbfOptions rbf;                //!< options for RBF coefficient nets
    bool paperHaar = true;         //!< paper-convention Haar transform
    MotherWavelet mother = MotherWavelet::Haar; //!< when !paperHaar

    /**
     * Clamp predicted traces to the value range seen in training
     * (plus a 10% margin). Workload metrics are physically bounded
     * (CPI >= 1/width, 0 <= AVF <= 1, power >= leakage); clamping
     * prevents rare RBF extrapolation blow-ups at design-space corners.
     */
    bool clampToTrainingRange = true;
};

/**
 * Workload-dynamics predictor across a microarchitecture design space.
 */
class WaveletNeuralPredictor
{
  public:
    explicit WaveletNeuralPredictor(PredictorOptions opts = {});

    /**
     * Train from simulated runs.
     * @param space the design space (supplies normalisation)
     * @param points training design points
     * @param traces one dynamics trace per point; all the same
     *        power-of-two length
     */
    void train(const DesignSpace &space,
               const std::vector<DesignPoint> &points,
               const std::vector<std::vector<double>> &traces);

    /**
     * Warm-start retraining for adaptive loops: like train(), but when
     * the predictor is already trained on traces of the same length it
     * keeps the existing wavelet-coefficient selection frozen and only
     * re-fits the per-coefficient regression models on the new (grown)
     * dataset. Selection stability across training sets is the paper's
     * Figure 7 result, so freezing it loses little accuracy while
     * keeping the model structure stable from round to round — and
     * skipping re-selection is the warm start the ROADMAP asks for.
     * Falls back to a full train() when untrained or the trace length
     * changed.
     */
    void retrain(const DesignSpace &space,
                 const std::vector<DesignPoint> &points,
                 const std::vector<std::vector<double>> &traces);

    /**
     * Predict the full dynamics trace at a design point:
     * predictTraces({point}).front(). Each call pools and tabulates
     * every RBF unit, so scoring many points is predictTraces' job.
     * @throws std::invalid_argument as predictTraces.
     */
    std::vector<double> predictTrace(const DesignPoint &point) const;

    /**
     * Predict the traces at @p points: decode them with
     * DesignSpace::trainIndicesOf, then expand the TraceEvaluator
     * segments of each 64-row block into the traces. Publishes the
     * predict.* counters once per call.
     * @throws std::invalid_argument as DesignSpace::trainIndicesOf,
     *         before anything is predicted.
     */
    std::vector<std::vector<double>>
    predictTraces(const std::vector<DesignPoint> &points) const;

    /** Indices of the modelled coefficients (selection order). */
    const std::vector<std::size_t> &selectedCoefficients() const
    {
        return selected;
    }

    /** Trace length the model was trained on. */
    std::size_t traceLength() const { return length; }

    bool trained() const { return length != 0; }

    /**
     * Parameter importance for Figure 11: split-order / split-frequency
     * spokes of the regression trees seeding the coefficient RBF nets,
     * averaged over coefficients weighted by coefficient importance.
     * Empty for non-RBF models.
     */
    std::vector<double> importanceByOrder() const;
    std::vector<double> importanceByFrequency() const;

    const PredictorOptions &options() const { return opts; }

    /** The design space captured at training time. @pre trained(). */
    const DesignSpace &designSpace() const { return space; }

    /** Per-coefficient models, selection order. @pre trained(). */
    const std::vector<std::unique_ptr<RegressionModel>> &
    coefficientModels() const
    {
        return models;
    }

    /** Value range of the training traces (lo, hi). */
    std::pair<double, double>
    trainingRange() const
    {
        return {trainLo, trainHi};
    }

    // Serialization (core/serialize.hh) rebuilds trained predictors.
    friend void savePredictor(const WaveletNeuralPredictor &,
                              std::ostream &);
    friend WaveletNeuralPredictor loadPredictor(std::istream &);

  private:
    friend class TraceEvaluator;

    void trainImpl(const DesignSpace &space,
                   const std::vector<DesignPoint> &points,
                   const std::vector<std::vector<double>> &traces,
                   bool keepSelection);

    std::vector<double> toCoefficients(
        const std::vector<double> &trace) const;

    std::unique_ptr<RegressionModel> makeModel() const;

    PredictorOptions opts;
    DesignSpace space; //!< copied at train time; owned by the model
    std::size_t length = 0;
    std::vector<std::size_t> selected;
    std::vector<double> selectionWeight; //!< mean |c| of each selected
    std::vector<std::unique_ptr<RegressionModel>> models;
    double trainLo = 0.0; //!< smallest training sample value
    double trainHi = 0.0; //!< largest training sample value
};

/**
 * The one prediction path: evaluates a list of trained predictors that
 * share one design lattice at the same level-index rows, in blocks of
 * at most kBlock rows.
 *
 * Built once per list. Every RbfNetwork coefficient model of every
 * predictor goes into one RbfUnitPool, so a unit that several models
 * share has its response computed once per row. Any other model runs
 * predictMany on normalised rows read from a per-(dimension, level)
 * table. A block's coefficient columns then become one predictor's
 * traces at a time as runs of equal samples (segments), so a caller
 * can reduce each (predictor, block) while it is cache resident, or
 * expand the runs into full traces (predictTraces).
 *
 * Immutable after construction and safe to share between threads;
 * each thread evaluates through its own Workspace. Every value is the
 * predictor's definition: each coefficient model's predict() on the
 * normalised point, inverse-transformed and clamped to the training
 * range plus a 10% margin. Expanded segments are bit-identical to it
 * unless the predicted coefficient 0 is -0.0 (see HaarSegmentPlan).
 */
class TraceEvaluator
{
  public:
    /** Rows per block: a block's traces stay in the L2 cache. */
    static constexpr std::size_t kBlock = RbfUnitPool::kBlock;

    /**
     * @pre @p predictors is not empty, every predictor is trained, and
     *      all were trained on design spaces with the same training
     *      levels.
     */
    explicit TraceEvaluator(
        std::vector<const WaveletNeuralPredictor *> predictors);

    /** Predictors evaluated, in constructor order. */
    std::size_t size() const { return preds.size(); }

    /**
     * The variant the score kernels run (Workspace::segments, and
     * scoreSegments in the sweep): bestSimdVariant(). The constructor
     * sets the sweep.score_avx2 gauge to 1 for avx2 and 0 for
     * baseline, which the telemetry summary names.
     */
    SimdVariant scoreVariant() const { return variant; }

    /** One thread's buffers and counters for an evaluation. */
    class Workspace
    {
      public:
        explicit Workspace(const TraceEvaluator &evaluator);

        /**
         * Predict every coefficient of every predictor at @p n <=
         * kBlock lattice rows (level indices, n x dims row-major).
         */
        void predict(const std::size_t *levelIdx, std::size_t n);

        /**
         * Predictor @p p's traces at the n rows of the last predict()
         * as segments in sample order, covering its trace length:
         * a paper-Haar predictor runs its HaarSegmentPlan
         * across the rows, any other transform is n one-sample
         * segments of its full inverse. Each segment's value is
         * clamped once and counted once per sample it covers, so the
         * predict.clamped_values count is that of the expanded traces.
         * The segments stay valid until the next predict().
         *
         * The Haar ops and the clamp are dual-compiled kernels
         * (util/simd.hh) run as @p variant, by default the
         * evaluator's scoreVariant(); every supported variant gives
         * the same bits and the same clamp count.
         */
        const std::vector<TraceSegment> &segments(std::size_t p)
        {
            return segments(p, ev.variant);
        }
        /** @pre simdVariantSupported(@p variant). */
        const std::vector<TraceSegment> &segments(std::size_t p,
                                                  SimdVariant variant);

        /**
         * Add the counts so far to the predict.rbf_terms,
         * predict.rbf_rows and predict.clamped_values counters, and
         * reset them.
         */
        void publish();

      private:
        /** The full orthonormal inverse of every row's coefficients
         *  for non-paper-Haar predictor @p p: sample t of row r at
         *  out[t * kBlock + r]. */
        void inverseRows(std::size_t p, double *out);

        const TraceEvaluator &ev;
        RbfUnitPool::Scratch scratch;
        std::vector<double> columns; //!< [column][kBlock]
        std::size_t rows = 0;        //!< rows of the last predict()
        std::vector<double> registers; //!< [register][kBlock]
        /** Each predictor's segments, pointing into registers. */
        std::vector<std::vector<TraceSegment>> segs;
        RbfTermCounts terms;
        std::uint64_t clamped = 0;
    };

  private:
    /** How one predictor's segments are computed. */
    struct SegmentPlan
    {
        /** Paper Haar: the plan; otherwise registers = length and
         *  segment t is register t, filled by the full inverse. */
        HaarSegmentPlan haar;
        std::size_t firstRegister = 0; //!< in Workspace::registers
        /** (register, samples it covers), for every register that
         *  some segment reads. */
        std::vector<std::pair<std::uint32_t, std::uint32_t>> covered;
    };

    std::vector<const WaveletNeuralPredictor *> preds;
    SimdVariant variant;
    std::vector<SegmentPlan> plans;
    std::size_t registerCount = 0; //!< over every plan
    std::vector<std::vector<double>> levels; //!< [dim][level] normalised
    std::vector<std::size_t> firstModel;     //!< predictor p's model 0
    /** Column of each model: pooled RBF networks first, in pool order,
     *  then every other model. */
    std::vector<std::size_t> columnOf;
    std::vector<const RegressionModel *> others; //!< non-RBF models
    RbfUnitPool pool;
};

} // namespace wavedyn

#endif // WAVEDYN_CORE_PREDICTOR_HH
