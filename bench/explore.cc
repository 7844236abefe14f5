/**
 * @file
 * Exploration throughput bench: how many design points per second the
 * trained predictors can score — the number that justifies
 * prediction-driven DSE over brute-force simulation (a single
 * cycle-level run takes milliseconds to seconds; a prediction must be
 * orders of magnitude cheaper to make sweeping 10^5-10^6
 * configurations routine).
 *
 * Reports the "batched+parallel" row — predictTraces over 1,024-point
 * chunks, one predictor, full traces returned — and a small end-to-end
 * adaptive exploration. The row repeats its sweep until a pass holds
 * 2^20 points (2^16 at smoke scale; one sweep of the whole space at
 * full), and reports the best and the median of kRepeats passes, so a
 * pass lasts long enough that timer and scheduling noise cannot pass
 * for a change. The row times trace prediction, not the
 * product sweep: runExplore scores its blocks in place (scoreRows,
 * dse/explorer.cc) without building traces, so sweep throughput is
 * perfbench's sweep_mpoints_per_s. `--json <path>` additionally writes
 * the numbers machine-readably (core/report JSON conventions).
 */

#include <algorithm>
#include <chrono>

#include "bench/common.hh"
#include "campaign/report.hh"
#include "core/scenario.hh"
#include "dse/explorer.hh"
#include "exec/thread_pool.hh"

using namespace wavedyn;

namespace
{

constexpr int kRepeats = 5;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath = benchJsonPath(argc, argv);
    auto ctx = BenchContext::init(
        "Design-space exploration — points predicted per second");

    // ---- Train one predictor bank cell (gcc x CPI) to benchmark the
    // sweep hot path in isolation.
    ExperimentSpec spec = ctx.spec("gcc");
    spec.domains = {Domain::Cpi};
    std::cout << "training benchmark predictor (train="
              << spec.trainPoints << ")...\n";
    auto data = generateExperimentData(spec);
    WaveletNeuralPredictor predictor;
    predictor.train(data.space, data.trainPoints,
                    data.trainTraces.at(Domain::Cpi));

    const std::size_t spaceSize = data.space.trainSpaceSize();
    const std::size_t sweepPoints = ctx.scale == Scale::Full
        ? spaceSize
        : ctx.scale == Scale::Quick ? std::min<std::size_t>(65536,
                                                            spaceSize)
                                    : std::min<std::size_t>(8192,
                                                            spaceSize);
    const std::size_t chunk = 1024;
    const std::size_t passPoints = ctx.scale == Scale::Full ? sweepPoints
                                   : ctx.scale == Scale::Quick
                                       ? std::size_t{1} << 20
                                       : std::size_t{1} << 16;
    const std::size_t sweeps =
        std::max<std::size_t>(1, passPoints / sweepPoints);
    const std::size_t points = sweeps * sweepPoints;

    // Batched path: chunked streaming over the pool, one predictTraces
    // per chunk; a pass repeats the sweep `sweeps` times.
    std::vector<double> chunkMeans((sweepPoints + chunk - 1) / chunk);
    std::vector<double> passSec;
    for (int rep = 0; rep < kRepeats; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t round = 0; round < sweeps; ++round)
            parallelChunks(
                ThreadPool::global(), sweepPoints, chunk,
                [&](std::size_t c, std::size_t begin, std::size_t end) {
                    std::vector<DesignPoint> pts;
                    pts.reserve(end - begin);
                    for (std::size_t i = begin; i < end; ++i)
                        pts.push_back(data.space.pointFromFlatTrainIndex(i));
                    auto traces = predictor.predictTraces(pts);
                    double acc = 0.0;
                    for (const auto &t : traces)
                        for (double v : t)
                            acc += v;
                    chunkMeans[c] = acc;
                });
        passSec.push_back(secondsSince(t0));
    }
    std::sort(passSec.begin(), passSec.end());
    const double batchedSec = passSec.front();
    const double medianSec = passSec[passSec.size() / 2];
    auto rate = [&](double sec) {
        return sec > 0.0 ? static_cast<double>(points) / sec : 0.0;
    };

    TextTable t("sweep throughput (one predictor, trace length " +
                fmt(predictor.traceLength()) + ", " + fmt(kRepeats) +
                " passes)");
    t.header({"path", "points/pass", "best s", "best points/sec",
              "median points/sec"});
    t.row({"batched+parallel", fmt(points), fmt(batchedSec, 3),
           fmt(rate(batchedSec), 0), fmt(rate(medianSec), 0)});
    t.print(std::cout);

    // ---- End-to-end adaptive exploration, tiny budget.
    std::cout << "\nend-to-end exploration (2 scenarios, budget 2):\n";
    ScenarioSet scenarios;
    auto names = scenarios.addGenerated(WorkloadFamily::Mixed, 7, 2);
    ExploreSpec espec;
    espec.base = ctx.spec("");
    espec.base.scenarios = &scenarios;
    espec.scenarios = names;
    espec.objectives = {Objective::Cpi, Objective::Energy};
    espec.budget = 2;
    espec.perRound = 2;
    espec.maxSweepPoints = sweepPoints;
    auto t0 = std::chrono::steady_clock::now();
    ExploreReport report = runExplore(espec);
    double exploreSec = secondsSince(t0);
    std::cout << renderExploreReport(report);
    std::cout << "\nexplore wall time: " << fmt(exploreSec, 2)
              << " s (" << ctx.jobs << " jobs)\n"
              << "Shape to check: batched sweep throughput is orders "
                 "of magnitude above\nsimulation speed — that gap is "
                 "the paper's case for prediction-driven DSE.\n";

    if (!jsonPath.empty()) {
        JsonValue doc = benchJsonHeader("explore", ctx);
        JsonValue sweep = JsonValue::object();
        sweep.set("points", std::uint64_t{points});
        sweep.set("repeats", std::uint64_t{kRepeats});
        sweep.set("batched_seconds", batchedSec);
        sweep.set("batched_points_per_sec", rate(batchedSec));
        sweep.set("median_points_per_sec", rate(medianSec));
        doc.set("sweep", std::move(sweep));
        JsonValue e2e = JsonValue::object();
        e2e.set("wall_seconds", exploreSec);
        e2e.set("report", exploreToJson(report));
        doc.set("explore", std::move(e2e));
        writeBenchJson(jsonPath, doc);
    }
    return 0;
}
