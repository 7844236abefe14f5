/**
 * @file
 * Declarative campaigns: one serializable description of everything
 * this repo can run, and one facade that runs it.
 *
 * The paper's protocol is a single pipeline — sample design points,
 * simulate, train predictors, evaluate or explore — but the public
 * surface had grown into scattered free functions with positional
 * parameters, re-wired by hand inside the CLI. A CampaignSpec folds
 * the whole description into one tagged, JSON-round-trippable value:
 *
 *   - kind: suite | explore | train | evaluate
 *   - the embedded ExperimentSpec sweep sizes / seed / DVM policy
 *   - PredictorOptions
 *   - scenario selection: explicit names and/or a generated
 *     (family, seed, count) block
 *   - per-kind knobs (explore budget/objectives, train/evaluate
 *     domain + model path)
 *
 * runCampaign() is the one entry point: it materialises the scenario
 * set, validates everything up front (field-path error messages, no
 * partial simulation on a bad spec) and dispatches to the suite /
 * explore / train / evaluate engines, returning a uniform
 * CampaignResult that the report sinks (campaign/report.hh) can render as
 * text, markdown, CSV or JSON.
 *
 * Because a spec is a plain JSON document, campaigns can be checked
 * into a repo, diffed in review and emitted by
 * `wavedyn_cli ... --dump-spec`.
 */

#ifndef WAVEDYN_CAMPAIGN_CAMPAIGN_HH
#define WAVEDYN_CAMPAIGN_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/hooks.hh"
#include "core/metrics.hh"
#include "core/predictor.hh"
#include "core/suite.hh"
#include "dse/explorer.hh"
#include "util/json.hh"
#include "workload/generator.hh"

namespace wavedyn
{

/** What a campaign does. */
enum class CampaignKind
{
    Suite,    //!< Figure 8 accuracy campaign over many scenarios
    Explore,  //!< prediction-driven design-space exploration
    Train,    //!< train one predictor and save it
    Evaluate, //!< evaluate a saved predictor on fresh simulations
};

/** Spec name of a kind ("suite", "explore", "train", "evaluate"). */
std::string campaignKindName(CampaignKind k);

/** Parse a kind name; returns false on unknown names. */
bool parseCampaignKind(const std::string &name, CampaignKind &out);

/**
 * Which scenarios a campaign runs: explicit names (resolved against
 * the paper twelve plus re-derivable "gen/<family>/s<seed>/<i>"
 * names), generated scenarios, or both (names first, generation
 * order after).
 */
struct ScenarioSelection
{
    std::vector<std::string> names;

    /** Generation block; count == 0 means no generated scenarios. */
    WorkloadFamily family = WorkloadFamily::Mixed;
    std::uint64_t seed = 1;
    std::size_t count = 0;

    /** The full scenario name list this selection denotes, in order. */
    std::vector<std::string> scenarioNames() const;
};

/**
 * One self-contained campaign description. Every field that matters
 * to the outcome is a plain value — no pointers, no environment
 * dependence — so toJson()/campaignSpecFromJson() round-trip it and
 * equal specs produce byte-identical reports.
 */
struct CampaignSpec
{
    CampaignKind kind = CampaignKind::Suite;

    /**
     * Sweep-size / seed / DVM template. The benchmark and scenarios
     * members are *not* part of the description: runCampaign derives
     * the benchmark per scenario and owns the scenario set.
     */
    ExperimentSpec experiment;

    PredictorOptions predictor;

    ScenarioSelection scenarios;

    // -- explore knobs (kind == Explore)
    std::vector<Objective> objectives = {Objective::Cpi,
                                         Objective::Energy};
    std::size_t budget = 4;
    std::size_t perRound = 2;
    std::size_t chunk = 1024;
    std::size_t maxSweepPoints = 0;

    // -- train / evaluate knobs
    Domain domain = Domain::Cpi;  //!< single-model metric domain
    std::string modelPath;        //!< train: output; evaluate: input
};

/**
 * Serializable identity: true iff both specs describe the same
 * campaign, i.e. toJson() renders identical documents. Knobs outside
 * the spec's kind (e.g. explore budget on a suite spec) do not
 * participate — they are not part of the description.
 */
bool operator==(const CampaignSpec &a, const CampaignSpec &b);
bool operator!=(const CampaignSpec &a, const CampaignSpec &b);

/** Render a spec as a JSON document (insertion-ordered, diffable). */
JsonValue toJson(const CampaignSpec &spec);

/**
 * Parse a spec from a JSON document. Strict: every field is
 * type-checked and unknown members are rejected, each error naming
 * the offending field path ("experiment.train_points: expected an
 * unsigned integer, got string"). Absent optional fields keep their
 * C++ defaults, so campaignSpecFromJson(toJson(s)) == s.
 *
 * Structural only — call validateCampaign() for semantic checks.
 * @throws std::invalid_argument with a field-path message.
 */
CampaignSpec campaignSpecFromJson(const JsonValue &doc);

/** Parse + validate a spec from raw JSON text (file contents). */
CampaignSpec parseCampaignSpec(const std::string &text);

/**
 * Semantic validation, up front: non-zero sweep sizes for the fields
 * the kind consumes, at least one scenario, no duplicate scenario
 * names, non-empty objectives / model path where required. Field-path
 * error messages; nothing is simulated.
 * @throws std::invalid_argument
 */
void validateCampaign(const CampaignSpec &spec);

/** Uniform result of any campaign; the kind selects the live part. */
struct CampaignResult
{
    CampaignKind kind = CampaignKind::Suite;

    SuiteReport suite;     //!< kind == Suite
    ExploreReport explore; //!< kind == Explore

    // -- kind == Train
    std::string modelPath;            //!< where the model was written
    std::size_t coefficientModels = 0;
    std::size_t traceLength = 0;

    // -- kind == Evaluate
    std::string benchmark;  //!< scenario evaluated (also set by Train)
    Domain domain = Domain::Cpi;
    EvalResult evaluation;

    // -- all kinds: result-cache activity of this campaign (zero when
    //    no cache is active). Deliberately NOT rendered by the report
    //    sinks — a report must stay byte-identical between a cold and
    //    a warm run of the same spec; the CLI surfaces these on stderr.
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheStores = 0;
    std::uint64_t cacheStoreFailures = 0; //!< stores that published nothing
};

/**
 * Run any campaign: validate, materialise the scenario set (paper
 * twelve + resolved/generated scenarios), dispatch on kind, and
 * return the uniform result. The report is a pure function of the
 * spec — byte-identical for any jobs setting.
 *
 * @throws std::invalid_argument / std::out_of_range on an invalid
 *         spec (before any simulation), std::runtime_error on model
 *         I/O failure (train/evaluate).
 */
CampaignResult runCampaign(const CampaignSpec &spec,
                           const CampaignHooks &hooks = {});

} // namespace wavedyn

#endif // WAVEDYN_CAMPAIGN_CAMPAIGN_HH
