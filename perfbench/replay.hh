/**
 * @file
 * The traced run: one campaign re-driven through the public functions
 * of each wavedyn layer, one call at a time, with spans recorded here.
 *
 * The replayed path is the campaign itself, step by step, in the order
 * and with the parallelism the campaign uses:
 *
 *  - core: planExperiment per scenario, trace assembly, predictor
 *    train / retrain / evaluation, predictTraces;
 *  - exec + cache + sim: RunScheduler::run per batch of runs. Its wall
 *    time is split with the scheduler's own telemetry (metrics and run
 *    spans, enabled only around the call): the cache probe phase, and
 *    the simulate and store time of each computed run on the workers.
 *    The run spans also give the lanes of each simulation call;
 *  - dse: objectiveScore, paretoFront per sweep chunk, mergeFronts,
 *    and the explorer's refinement selection.
 *
 * Probes then time layers off the path on the same inputs: scalar
 * simulate() on every 4th computed run, a Cursor pass over each
 * scenario's stream, the result codec, the wavelet/mlmodel steps inside
 * each predictor fit, and RbfNetwork::predictMany plus haarInverseInto
 * (the steps of predictTraces) on one sweep chunk's rows.
 *
 * Checks (each a counted operation): scheduler (batched) and scalar
 * results agree digest for digest; the scheduler's run spans account
 * for every computed run in chunks no wider than the batch width; cache
 * stores succeed and the codec round-trips; the replayed round-1 sweep
 * finds the front size the campaign reported.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "cache/store.hh"
#include "campaign/campaign.hh"
#include "workloads.hh"

namespace perfbench
{

/** What the traced run needs from the harness. */
struct ReplayContext
{
    const Workload *workload = nullptr;
    /** The cache a campaign of this workload would use (may be null). */
    std::function<std::shared_ptr<wavedyn::ResultCache>()> openCache;
    /** The campaign's own result, for the round-1 front check. */
    const wavedyn::CampaignResult *reference = nullptr;
    std::size_t jobs = 1;
    unsigned batchWidth = 1;
};

/** Per-layer figures of one traced run. */
struct ReplayOutcome
{
    std::map<std::string, double> metrics;
    double pathSeconds = 0.0; //!< wall time of the replayed path
    std::size_t checks = 0;
    std::size_t failures = 0;
};

/** Run the traced replay of ctx.workload. */
ReplayOutcome tracedReplay(const ReplayContext &ctx);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
