/**
 * @file
 * Prediction-driven design-space exploration — the paper's actual
 * end-to-end use case. The repo trains wavelet+RBF predictors of
 * workload dynamics; this engine *uses* them to replace brute-force
 * simulation during microarchitecture DSE:
 *
 *  1. Sweep: stream the full cross-product of training levels
 *     (10^5-10^6 configurations for the Table 2 space) through the
 *     trained per-scenario predictors in chunks (never materialising
 *     the space), batch-predicting every objective per design point.
 *  2. Frontier: reduce each chunk to its local Pareto front on the
 *     worker, kept as flat rows, then merge the shards into the global
 *     multi-objective frontier (dse/pareto.hh) — deterministic for any
 *     worker count.
 *  3. Refine: rank frontier points by predictor uncertainty
 *     (cross-scenario disagreement plus distance to the nearest
 *     training point), spend the real-simulation budget on the top-k,
 *     report predicted-vs-simulated error, fold the new runs into the
 *     training set, warm-start retrain, and repeat until the budget
 *     is exhausted.
 *
 * Determinism contract: the report is a pure function of the spec —
 * byte-identical for any --jobs setting, chunk size permitting
 * (chunking only changes worker-local reduction boundaries, which the
 * frontier merge erases).
 */

#ifndef WAVEDYN_DSE_EXPLORER_HH
#define WAVEDYN_DSE_EXPLORER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/hooks.hh"
#include "dse/objectives.hh"
#include "dse/pareto.hh"
#include "exec/scheduler.hh"

namespace wavedyn
{

/** Everything needed to run one exploration campaign. */
struct ExploreSpec
{
    /**
     * Campaign template: trainPoints is the *initial* LHS sample each
     * scenario is simulated on, testPoints the held-out baseline set
     * (round 0 of the error table); samples / intervalInstrs / seed /
     * dvm / scenarios behave exactly as in a suite campaign. The
     * domains field is ignored — the engine derives it from the
     * objectives.
     */
    ExperimentSpec base;

    /** Scenario names, resolved in base.scenarios (suite semantics). */
    std::vector<std::string> scenarios;

    /** Figures of merit spanning the frontier (>= 1). */
    std::vector<Objective> objectives = {Objective::Cpi,
                                         Objective::Energy};

    /** Refinement budget: total real simulations (design points). */
    std::size_t budget = 4;

    /** Frontier points simulated per refinement round (top-k). */
    std::size_t perRound = 2;

    /** Sweep chunk size (points per worker-local reduction). */
    std::size_t chunk = 1024;

    /**
     * Cap on swept configurations: 0 streams the full cross-product;
     * otherwise the space is strided down to at most this many points
     * (deterministic, spreads over the whole space). Smoke-test knob.
     */
    std::size_t maxSweepPoints = 0;

    /** Predictor construction options (paper defaults). */
    PredictorOptions predictor;
};

/** One refinement round's outcome. */
struct ExploreRoundStats
{
    std::size_t round = 0;       //!< 0 = held-out baseline, 1.. = loop
    std::size_t frontSize = 0;   //!< frontier size at selection time
    std::size_t simulated = 0;   //!< design points simulated
    //! mean |predicted - simulated| / |simulated| per objective, %
    std::vector<double> meanAbsErrPct;
};

/** Result of an exploration campaign. */
struct ExploreReport
{
    std::vector<Objective> objectives;
    std::vector<std::string> paramNames;
    std::size_t spaceSize = 0;     //!< full cross-product size
    std::size_t sweepStride = 1;   //!< 1 = exhaustive
    std::size_t sweepPoints = 0;   //!< configurations scored per sweep
    std::size_t scenarioCount = 0;
    std::size_t initialTrainPoints = 0;
    std::size_t finalTrainPoints = 0; //!< after refinement folding
    std::vector<ExploreRoundStats> rounds; //!< baseline + each round
    /**
     * Final Pareto frontier (after the last retrain), canonical
     * order. values holds raw objective values aggregated across
     * scenarios; uncertainty the rank key described above.
     */
    std::vector<FrontPoint> frontier;
};

/**
 * Run a full exploration campaign. Progress is observed through the
 * shared CampaignHooks interface (core/hooks.hh): phase banners,
 * per-scenario dataset assembly, worker-side run completion.
 *
 * @throws std::invalid_argument on an empty scenario/objective list,
 *         perRound == 0 with a non-zero budget, or a base spec that
 *         fails validateSpec() for any scenario.
 */
ExploreReport runExplore(const ExploreSpec &spec,
                         const CampaignHooks &hooks = {});

/**
 * Render the report as deterministic ASCII: campaign summary, the
 * per-round predicted-vs-simulated error table, and the frontier with
 * one row per non-dominated configuration. Byte-identical for any
 * jobs setting (the golden explorer test pins this).
 */
std::string renderExploreReport(const ExploreReport &report);

} // namespace wavedyn

#endif // WAVEDYN_DSE_EXPLORER_HH
