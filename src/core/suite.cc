#include "core/suite.hh"

#include <algorithm>
#include <utility>

#include "exec/scheduler.hh"
#include "telemetry/telemetry.hh"

namespace wavedyn
{

const SuiteCell *
SuiteReport::find(const std::string &benchmark, Domain domain) const
{
    for (const auto &c : cells)
        if (c.benchmark == benchmark && c.domain == domain)
            return &c;
    return nullptr;
}

double
SuiteReport::overallMedian(Domain domain) const
{
    std::vector<double> medians;
    for (const auto &c : cells)
        if (c.domain == domain)
            medians.push_back(c.mse.median);
    return boxplot(medians).median;
}

std::vector<ExperimentData>
simulateSuiteDatasets(const std::vector<std::string> &benchmarks,
                      const ExperimentSpec &base,
                      const CampaignHooks &hooks)
{
    // Phase 1 (serial, cheap): sample each benchmark's design points
    // and flatten every (configuration x benchmark) run into one
    // scheduler batch, so the parallel phase never stalls on a
    // per-benchmark barrier.
    std::vector<ExperimentSpec> specs;
    std::vector<ExperimentPlan> plans;
    std::vector<ScheduledExperiment> scheds;
    RunScheduler scheduler(base.seed);
    attachHooks(scheduler, hooks);
    specs.reserve(benchmarks.size());
    plans.reserve(benchmarks.size());
    scheds.reserve(benchmarks.size());
    {
        ScopedPhase phase("plan");
        for (const auto &bench : benchmarks) {
            ExperimentSpec spec = base;
            spec.benchmark = bench;
            plans.push_back(planExperiment(spec));
            scheds.push_back(scheduleExperiment(spec, plans.back(),
                                                scheduler));
            specs.push_back(std::move(spec));
        }
    }

    // Phase 2 (parallel): all simulations of the whole campaign.
    {
        ScopedPhase phase("simulate");
        scheduler.run();
    }

    // Assembly moves each run's result out of the scheduler as its
    // traces are extracted (takeResult), so peak memory holds one
    // run's raw per-interval record at a time — never the whole
    // campaign's raw results next to the copied-out traces.
    ScopedPhase phase("assemble");
    std::vector<ExperimentData> datasets;
    datasets.reserve(benchmarks.size());
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        datasets.push_back(assembleExperiment(specs[b],
                                              std::move(plans[b]),
                                              scheduler, scheds[b]));
        if (hooks.scenarioDone)
            hooks.scenarioDone(benchmarks[b], b + 1, benchmarks.size());
    }
    return datasets;
}

SuiteReport
runSuite(const ScenarioSet &scenarios, const ExperimentSpec &base,
         const PredictorOptions &opts, const CampaignHooks &hooks)
{
    ExperimentSpec spec = base;
    spec.scenarios = &scenarios;
    const std::vector<std::string> benchmarks = scenarios.names();
    std::vector<ExperimentData> datasets =
        simulateSuiteDatasets(benchmarks, spec, hooks);

    // Phase 3 (parallel): one training/evaluation task per
    // (benchmark x domain) cell, again flattened across benchmarks.
    // Cells are written by index, so report order and content are
    // independent of the worker count.
    struct CellRef
    {
        std::size_t bench;
        Domain domain;
    };
    std::vector<CellRef> refs;
    for (std::size_t b = 0; b < benchmarks.size(); ++b)
        for (Domain d : spec.domains)
            refs.push_back({b, d});

    ScopedPhase phase("train");
    std::vector<SuiteCell> cells(refs.size());
    parallelFor(ThreadPool::global(), refs.size(), [&](std::size_t i) {
        const CellRef &ref = refs[i];
        const ExperimentData &data = datasets[ref.bench];
        auto out = trainAndEvaluate(data, ref.domain, opts);

        SuiteCell cell;
        cell.benchmark = benchmarks[ref.bench];
        cell.domain = ref.domain;
        cell.mse = out.eval.summary;
        cell.msePerTest = out.eval.msePerTest;

        cell.asymmetryQ = meanDirectionalAsymmetryQ(
            data.testTraces.at(ref.domain),
            out.predictor.predictTraces(data.testPoints));
        cells[i] = std::move(cell);
    });

    SuiteReport report;
    report.cells = std::move(cells);
    return report;
}

SuiteReport
runSuite(const std::vector<std::string> &benchmarks,
         const ExperimentSpec &base, const PredictorOptions &opts,
         const CampaignHooks &hooks)
{
    // Resolve the requested names into their own set — in order, with
    // generated names re-derived — and hand the primitive exactly the
    // profiles to run. The resolver is a mutable copy because
    // resolve() may add re-derived gen/ profiles to it.
    ScenarioSet resolver = scenariosOf(base);
    ScenarioSet subset;
    for (const auto &name : benchmarks)
        subset.add(resolver.resolve(name));
    return runSuite(subset, base, opts, hooks);
}

} // namespace wavedyn
