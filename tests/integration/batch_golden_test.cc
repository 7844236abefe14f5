/**
 * @file
 * Shared-decode golden test: every campaign report must reproduce its
 * checked-in golden byte for byte at --jobs 1 and --jobs 4, now that
 * each cache-missing run is its own pool task over its run shape's
 * one decode. Both goldens (tests/data/golden_generated_suite.txt and
 * golden_explore_report.txt) predate the shared decode, so it is also
 * proven not to have moved a byte relative to the simulator that
 * decoded privately per run.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.hh"
#include "campaign/report.hh"
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

/** Run @p json at a pinned jobs count, restoring it. */
CampaignResult
runAt(const char *json, std::size_t jobs)
{
    CampaignSpec spec = parseCampaignSpec(json);
    setJobs(jobs);
    CampaignResult result = runCampaign(spec);
    setJobs(0);
    return result;
}

TEST(BatchGolden, SuiteReproducesGoldenAtOneAndFourJobs)
{
    std::string golden =
        readFile(WAVEDYN_TEST_DATA_DIR "/golden_generated_suite.txt");
    ASSERT_FALSE(golden.empty());
    for (std::size_t jobs : {std::size_t(1), std::size_t(4)})
        EXPECT_EQ(renderAllFormats(runAt(kSuiteSpecJson, jobs)), golden)
            << "jobs=" << jobs;
}

TEST(BatchGolden, ExploreReproducesGoldenAtOneAndFourJobs)
{
    std::string golden =
        readFile(WAVEDYN_TEST_DATA_DIR "/golden_explore_report.txt");
    ASSERT_FALSE(golden.empty());
    for (std::size_t jobs : {std::size_t(1), std::size_t(4)})
        EXPECT_EQ(renderReport(runAt(kExploreSpecJson, jobs),
                               ReportFormat::Text),
                  golden)
            << "jobs=" << jobs;
}

} // namespace
} // namespace wavedyn
