#include "workloads.hh"

#include <stdexcept>
#include <utility>

#include "workload/profile.hh"

namespace perfbench
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Fisher-Yates shuffle driven by the run seed. */
std::vector<std::string>
permuted(std::vector<std::string> names, std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (std::size_t i = names.size(); i > 1; --i)
        std::swap(names[i - 1], names[splitmix64(state) % i]);
    return names;
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "suite-cold", "explore-warm", "explore-refine"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t scenarioSeed,
             std::uint64_t experimentSeed, std::uint64_t runSeed)
{
    using namespace wavedyn;
    Workload w;
    w.name = name;
    CampaignSpec &spec = w.spec;
    spec.experiment.seed = experimentSeed;
    if (name == "suite-cold") {
        spec.kind = CampaignKind::Suite;
        spec.scenarios.names = permuted(benchmarkNames(), runSeed);
        w.cache = CacheMode::None;
        return w;
    }

    // Generated scenarios are listed by name ("gen/<family>/s<seed>/<i>"
    // denotes the same profile as a generate block) so the run seed can
    // order them.
    ScenarioSelection gen;
    gen.family = WorkloadFamily::Mixed;
    gen.seed = scenarioSeed;
    gen.count = 3;
    spec.kind = CampaignKind::Explore;
    spec.scenarios.names = permuted(gen.scenarioNames(), runSeed);
    spec.objectives = {Objective::Cpi, Objective::Energy, Objective::Avf};
    if (name == "explore-warm") {
        spec.budget = 4;
        spec.perRound = 2;
        w.cache = CacheMode::Warm;
        return w;
    }
    if (name == "explore-refine") {
        spec.experiment.trainPoints = 24;
        spec.experiment.testPoints = 8;
        spec.budget = 64;
        spec.perRound = 4;
        spec.maxSweepPoints = 8192;
        w.cache = CacheMode::Fresh;
        return w;
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace perfbench
