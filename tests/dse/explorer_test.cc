/**
 * @file
 * Exploration engine tests: the adaptive loop's accounting (rounds,
 * budget, training-set growth), spec validation, and the determinism
 * contract — the rendered report is byte-identical for jobs 1 vs 8
 * and for different chunk sizes, and pinned to a checked-in golden
 * file (WAVEDYN_UPDATE_GOLDEN=1 regenerates; same toolchain caveat as
 * the suite golden test).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hh"
#include "dse/explorer.hh"
#include "telemetry/telemetry.hh"
#include "util/options.hh"

#ifndef WAVEDYN_TEST_DATA_DIR
#error "WAVEDYN_TEST_DATA_DIR must point at tests/data"
#endif

namespace wavedyn
{
namespace
{

const char *kGoldenPath =
    WAVEDYN_TEST_DATA_DIR "/golden_explore_report.txt";
const char *kSparseGoldenPath =
    WAVEDYN_TEST_DATA_DIR "/golden_explore_sparse_report.txt";

/** The pinned campaign: 3 mixed scenarios, 2 refinement rounds. */
ExploreSpec
pinnedSpec(const ScenarioSet &scenarios)
{
    ExploreSpec spec;
    spec.base.trainPoints = 10;
    spec.base.testPoints = 4;
    spec.base.samples = 16;
    spec.base.intervalInstrs = 120;
    spec.base.scenarios = &scenarios;
    spec.scenarios = scenarios.names();
    spec.objectives = {Objective::Cpi, Objective::Energy,
                       Objective::Avf};
    spec.budget = 4;
    spec.perRound = 2;
    spec.chunk = 64; // several chunks even at the strided sweep size
    spec.maxSweepPoints = 512;
    return spec;
}

ScenarioSet
pinnedScenarios()
{
    ScenarioSet scenarios;
    scenarios.addGenerated(WorkloadFamily::Mixed, 7, 3);
    return scenarios;
}

std::string
renderPinnedCampaign(std::size_t jobs, std::size_t chunk = 64)
{
    ScenarioSet scenarios = pinnedScenarios();
    ExploreSpec spec = pinnedSpec(scenarios);
    spec.chunk = chunk;
    setJobs(jobs);
    ExploreReport report = runExplore(spec);
    setJobs(0);
    return renderExploreReport(report);
}

/** Cache the serial render; several tests compare against it. */
const std::string &
serialRender()
{
    static const std::string rendered = renderPinnedCampaign(1);
    return rendered;
}

/**
 * The pinned campaign with 64-sample traces, 8 of 64 coefficients and
 * all five objectives: the predicted traces are piecewise constant
 * over runs of several samples, which the 16-sample campaign (k = 16
 * of 16) never produces. paperHaar = false runs the orthonormal
 * Daubechies4 transform instead.
 */
std::string
renderSparseCampaign(bool paperHaar)
{
    ScenarioSet scenarios = pinnedScenarios();
    ExploreSpec spec = pinnedSpec(scenarios);
    spec.base.samples = 64;
    spec.objectives = allObjectives();
    spec.chunk = 256;
    spec.maxSweepPoints = 2048;
    spec.predictor.coefficients = 8;
    spec.predictor.paperHaar = paperHaar;
    spec.predictor.mother = MotherWavelet::Daubechies4;
    setJobs(1);
    ExploreReport report = runExplore(spec);
    setJobs(0);
    return renderExploreReport(report);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(Explorer, AdaptiveLoopAccounting)
{
    ScenarioSet scenarios = pinnedScenarios();
    ExploreSpec spec = pinnedSpec(scenarios);
    ExploreReport report = runExplore(spec);

    // Budget 4 at 2 per round = 2 refinement rounds after the
    // held-out baseline row.
    ASSERT_EQ(report.rounds.size(), 3u);
    EXPECT_EQ(report.rounds[0].round, 0u);
    EXPECT_EQ(report.rounds[0].simulated, 4u); // the test points
    EXPECT_EQ(report.rounds[1].round, 1u);
    EXPECT_EQ(report.rounds[1].simulated, 2u);
    EXPECT_EQ(report.rounds[2].round, 2u);
    EXPECT_EQ(report.rounds[2].simulated, 2u);
    for (const auto &r : report.rounds) {
        ASSERT_EQ(r.meanAbsErrPct.size(), 3u);
        for (double e : r.meanAbsErrPct)
            EXPECT_GE(e, 0.0);
    }
    EXPECT_GT(report.rounds[1].frontSize, 0u);

    // Every refinement simulation lands in the training set.
    EXPECT_EQ(report.initialTrainPoints, 10u);
    EXPECT_EQ(report.finalTrainPoints, 14u);

    // The frontier is non-empty, mutually non-dominated, canonical.
    ASSERT_FALSE(report.frontier.empty());
    for (const auto &a : report.frontier)
        for (const auto &b : report.frontier)
            EXPECT_FALSE(dominates(a.scores, b.scores));
    for (std::size_t i = 1; i < report.frontier.size(); ++i)
        EXPECT_TRUE(canonicalLess(report.frontier[i - 1],
                                  report.frontier[i]));
    EXPECT_EQ(report.spaceSize, 245760u);
    EXPECT_EQ(report.scenarioCount, 3u);
}

TEST(Explorer, RejectsDegenerateSpecs)
{
    ScenarioSet scenarios = pinnedScenarios();
    ExploreSpec spec = pinnedSpec(scenarios);

    ExploreSpec noScenarios = spec;
    noScenarios.scenarios.clear();
    EXPECT_THROW(runExplore(noScenarios), std::invalid_argument);

    ExploreSpec noObjectives = spec;
    noObjectives.objectives.clear();
    EXPECT_THROW(runExplore(noObjectives), std::invalid_argument);

    ExploreSpec zeroPerRound = spec;
    zeroPerRound.perRound = 0;
    EXPECT_THROW(runExplore(zeroPerRound), std::invalid_argument);

    ExploreSpec unknownScenario = spec;
    unknownScenario.scenarios.push_back("no-such-benchmark");
    EXPECT_THROW(runExplore(unknownScenario), std::out_of_range);
}

TEST(Explorer, ZeroBudgetSkipsRefinement)
{
    ScenarioSet scenarios = pinnedScenarios();
    ExploreSpec spec = pinnedSpec(scenarios);
    spec.budget = 0;
    ExploreReport report = runExplore(spec);
    ASSERT_EQ(report.rounds.size(), 1u); // baseline only
    EXPECT_EQ(report.finalTrainPoints, report.initialTrainPoints);
    EXPECT_FALSE(report.frontier.empty());
}

TEST(Explorer, GoldenReportMatchesByteForByte)
{
    const std::string &rendered = serialRender();

    if (std::getenv("WAVEDYN_UPDATE_GOLDEN")) {
        std::ofstream out(kGoldenPath, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << kGoldenPath;
    }

    std::string golden = readFile(kGoldenPath);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << kGoldenPath
        << " (regenerate with WAVEDYN_UPDATE_GOLDEN=1)";
    EXPECT_EQ(rendered, golden)
        << "explorer report drifted from the golden file; if "
           "intentional, regenerate with WAVEDYN_UPDATE_GOLDEN=1";
}

TEST(Explorer, SparseGoldenReportMatchesByteForByte)
{
    // One file, the paper-Haar report followed by the Daubechies4 one.
    const std::string rendered =
        renderSparseCampaign(true) + renderSparseCampaign(false);

    if (std::getenv("WAVEDYN_UPDATE_GOLDEN")) {
        std::ofstream out(kSparseGoldenPath, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << kSparseGoldenPath;
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << kSparseGoldenPath;
    }

    std::string golden = readFile(kSparseGoldenPath);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << kSparseGoldenPath
        << " (regenerate with WAVEDYN_UPDATE_GOLDEN=1)";
    EXPECT_EQ(rendered, golden)
        << "sparse explorer report drifted from the golden file; if "
           "intentional, regenerate with WAVEDYN_UPDATE_GOLDEN=1";
}

TEST(Explorer, EightJobsReportIdenticalToSerial)
{
    EXPECT_EQ(serialRender(), renderPinnedCampaign(8));
}

/** Sample count of histogram @p name, 0 when absent. */
std::uint64_t
histogramCount(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &h : snap.histograms)
        if (h.name == name)
            return h.count;
    return 0;
}

TEST(Explorer, SweepCountersAreJobsInvariant)
{
    // The sweep's observe-only counters, and the sample counts of its
    // stage timers, depend on the chunking, never on which worker
    // scored a chunk.
    auto deltas = [](std::size_t jobs) {
        const char *counters[] = {"predict.rbf_terms",
                                  "predict.clamped_values",
                                  "predict.rbf_rows"};
        const char *timers[] = {"sweep.predict_us", "sweep.score_us",
                                "sweep.filter_us"};
        auto read = [&] {
            MetricsSnapshot snap = metricsRegistry().snapshot();
            std::map<std::string, std::uint64_t> v;
            for (const char *n : counters)
                v[n] = snap.counterOr(n);
            for (const char *n : timers)
                v[n] = histogramCount(snap, n);
            return v;
        };
        std::map<std::string, std::uint64_t> grown = read();
        renderPinnedCampaign(jobs);
        for (const auto &[name, now] : read())
            grown[name] = now - grown[name];
        return grown;
    };
    std::map<std::string, std::uint64_t> serial = deltas(1);
    EXPECT_EQ(serial, deltas(8));
    EXPECT_GT(serial["predict.rbf_terms"], 0u);
    // Every row adds every unit reference of the pool, and the
    // scenario x domain predictors hold many per row.
    EXPECT_GT(serial["predict.rbf_rows"], 0u);
    EXPECT_GT(serial["predict.rbf_terms"], serial["predict.rbf_rows"]);
    // One sample per scored chunk: the held-out scorer and 3 sweeps
    // of 512 points in chunks of 64.
    EXPECT_EQ(serial["sweep.predict_us"], 1u + 3u * 512u / 64u);
    EXPECT_EQ(serial["sweep.score_us"], serial["sweep.predict_us"]);
    // One filter sample per sweep chunk; the held-out scorer filters
    // nothing.
    EXPECT_EQ(serial["sweep.filter_us"], 3u * 512u / 64u);
}

TEST(Explorer, ChunkSizeDoesNotChangeTheReport)
{
    // Chunking only moves worker-local reduction boundaries; the
    // frontier merge and canonical ordering erase it. Chunks of one
    // row, and of one row either side of the scoring block size, put
    // ragged blocks at every chunk end.
    const std::size_t block = TraceEvaluator::kBlock;
    for (std::size_t chunk : {std::size_t{1}, std::size_t{17}, block - 1,
                              block + 1})
        EXPECT_EQ(serialRender(), renderPinnedCampaign(1, chunk))
            << "chunk " << chunk;
    EXPECT_EQ(serialRender(), renderPinnedCampaign(8, 512));
}

} // anonymous namespace
} // namespace wavedyn
