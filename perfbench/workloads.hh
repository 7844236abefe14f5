/**
 * @file
 * The benchmark's three workloads, as campaign specs.
 *
 *  - suite-cold: the Figure 8 accuracy campaign over the paper's twelve
 *    benchmarks at the default sizes, no result cache. Simulation is
 *    nearly all of its time, and the scheduler forms full-width chunks.
 *  - explore-warm: the default explore campaign (three generated
 *    "mixed" scenarios, objectives cpi/energy/avf, the full sweep,
 *    budget 4) against a result cache filled once before timing. Every
 *    run is a cache read; the predictor sweep is nearly all its time.
 *  - explore-refine: a small initial sample and many narrow refinement
 *    rounds into a fresh cache directory: narrow chunks, cache stores
 *    and warm-start retrains.
 *
 * Inputs: the scenario seed picks the generated scenarios, the
 * experiment seed the sampled design points. The run seed only
 * permutes the order the scenarios are listed in, which changes the
 * task order the scheduler and the explorer see but neither the runs
 * nor the accuracy figures, so those repeat exactly from run to run.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hh"

namespace perfbench
{

/** How a workload uses the result cache. */
enum class CacheMode
{
    None,  //!< no cache at all
    Warm,  //!< one directory, filled by an untimed cold run first
    Fresh, //!< a new empty directory for every campaign
};

/** One named workload. */
struct Workload
{
    std::string name;
    wavedyn::CampaignSpec spec;
    CacheMode cache = CacheMode::None;
};

/** Primary workload seeds; gain claims must also hold on the second. */
inline constexpr std::uint64_t kScenarioSeed = 1;
inline constexpr std::uint64_t kExperimentSeed = 0x5eed;
inline constexpr std::uint64_t kSecondScenarioSeed = 7;
inline constexpr std::uint64_t kSecondExperimentSeed = 1234;

/** Names of every workload, BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name.
 * @throws std::invalid_argument on an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t scenarioSeed,
                      std::uint64_t experimentSeed, std::uint64_t runSeed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
