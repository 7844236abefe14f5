/**
 * @file
 * Batch-width golden test: every campaign report must be
 * byte-identical whether the scheduler folds cache-missing runs into
 * wide simulateBatch() chunks or runs each task as a one-lane chunk
 * (setGlobalBatchWidth(1)), at any jobs count. The suite run is
 * additionally pinned against the checked-in golden
 * (tests/data/golden_generated_suite.txt), which predates the
 * batched kernel — so batching is also proven not to have moved a
 * byte relative to the pre-batching simulator.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.hh"
#include "campaign/report.hh"
#include "sim/batch.hh"
#include "util/options.hh"

#ifndef WAVEDYN_TEST_DATA_DIR
#error "WAVEDYN_TEST_DATA_DIR must point at tests/data"
#endif

namespace wavedyn
{
namespace
{

/** Same pinned suite campaign as campaign_golden_test.cc. */
const char *kSuiteSpecJson = R"({
  "kind": "suite",
  "scenarios": {
    "generate": {"family": "mixed", "seed": 7, "count": 3}
  },
  "experiment": {
    "train_points": 10,
    "test_points": 4,
    "samples": 16,
    "interval_instrs": 120
  }
})";

/** Same pinned explore campaign as campaign_golden_test.cc. */
const char *kExploreSpecJson = R"({
  "kind": "explore",
  "scenarios": {
    "generate": {"family": "mixed", "seed": 7, "count": 3}
  },
  "experiment": {
    "train_points": 10,
    "test_points": 4,
    "samples": 16,
    "interval_instrs": 120
  },
  "explore": {
    "objectives": ["cpi", "energy", "avf"],
    "budget": 4,
    "per_round": 2,
    "chunk": 64,
    "max_sweep_points": 512
  }
})";

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
renderAllFormats(const CampaignResult &result)
{
    std::ostringstream os;
    os << "== text ==\n" << renderReport(result, ReportFormat::Text)
       << "== markdown ==\n"
       << renderReport(result, ReportFormat::Markdown) << "== csv ==\n"
       << renderReport(result, ReportFormat::Csv);
    return os.str();
}

/** Run @p json at a pinned (jobs, batch width), restoring both. */
CampaignResult
runAt(const char *json, std::size_t jobs, unsigned batchWidth)
{
    CampaignSpec spec = parseCampaignSpec(json);
    setJobs(jobs);
    setGlobalBatchWidth(batchWidth);
    CampaignResult result = runCampaign(spec);
    setGlobalBatchWidth(0);
    setJobs(0);
    return result;
}

TEST(BatchGolden, SuiteReportInvariantAcrossWidthsAndJobs)
{
    const std::string oneLane =
        renderAllFormats(runAt(kSuiteSpecJson, 1, 1));
    for (std::size_t jobs : {std::size_t(1), std::size_t(8)})
        for (unsigned width : {16u, 64u})
            EXPECT_EQ(oneLane,
                      renderAllFormats(
                          runAt(kSuiteSpecJson, jobs, width)))
                << "jobs=" << jobs << " width=" << width;
}

TEST(BatchGolden, BatchedSuiteReproducesPreBatchingGolden)
{
    std::string golden =
        readFile(WAVEDYN_TEST_DATA_DIR "/golden_generated_suite.txt");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(renderAllFormats(runAt(kSuiteSpecJson, 8, 64)), golden)
        << "a batched campaign no longer reproduces the pre-batching "
           "golden suite report";
}

TEST(BatchGolden, ExploreReportInvariantAcrossWidths)
{
    const std::string oneLane = renderReport(
        runAt(kExploreSpecJson, 1, 1), ReportFormat::Text);
    EXPECT_EQ(oneLane,
              renderReport(runAt(kExploreSpecJson, 8, 64),
                           ReportFormat::Text));
}

} // namespace
} // namespace wavedyn
