/**
 * @file
 * Declarative-campaign golden test: the JSON specs checked in under
 * examples/ (and their in-test copies) must reproduce the existing
 * golden suite and explore reports byte-for-byte, at jobs=1, 4 and
 * 8, through the full spec pipeline — parse -> validate ->
 * runCampaign -> ReportSink — i.e. exactly what
 * `wavedyn_cli run <spec.json>` executes. This pins the API redesign
 * to the pre-redesign outputs: re-plumbing the campaign surface must
 * not move a byte of any report.
 *
 * Regenerate tests/data/golden_campaign_suite.txt (the text-sink
 * render the CI example-campaign diff uses) with
 * WAVEDYN_UPDATE_GOLDEN=1; the other two goldens belong to the older
 * suite/explorer tests and are only read here.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
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

/**
 * The pinned suite campaign (3 mixed scenarios, tiny sweeps) as a
 * spec document — the same campaign golden_report_test.cc builds in
 * C++, and the same document checked in as
 * examples/campaign_suite.json.
 */
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

/** The explorer golden campaign (dse/explorer_test.cc) as a spec. */
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

CampaignResult
runSpecText(const char *json, std::size_t jobs)
{
    CampaignSpec spec = parseCampaignSpec(json);
    setJobs(jobs);
    CampaignResult result = runCampaign(spec);
    setJobs(0);
    return result;
}

/** Cache per-campaign serial results; several tests reuse them. */
const CampaignResult &
serialSuiteResult()
{
    static const CampaignResult result = runSpecText(kSuiteSpecJson, 1);
    return result;
}

const CampaignResult &
serialExploreResult()
{
    static const CampaignResult result =
        runSpecText(kExploreSpecJson, 1);
    return result;
}

/** The three-format concatenation the suite golden file pins. */
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

TEST(CampaignGolden, SuiteSpecReproducesGoldenReportByteForByte)
{
    std::string golden =
        readFile(WAVEDYN_TEST_DATA_DIR "/golden_generated_suite.txt");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(renderAllFormats(serialSuiteResult()), golden)
        << "the declarative campaign pipeline no longer reproduces "
           "the golden suite report";
}

TEST(CampaignGolden, SuiteSpecJobsInvariant)
{
    for (std::size_t jobs : {std::size_t(4), std::size_t(8)})
        EXPECT_EQ(renderAllFormats(serialSuiteResult()),
                  renderAllFormats(runSpecText(kSuiteSpecJson, jobs)))
            << "jobs=" << jobs;
}

TEST(CampaignGolden, ExploreSpecReproducesGoldenReportByteForByte)
{
    std::string golden =
        readFile(WAVEDYN_TEST_DATA_DIR "/golden_explore_report.txt");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(renderReport(serialExploreResult(), ReportFormat::Text),
              golden)
        << "the declarative campaign pipeline no longer reproduces "
           "the golden explore report";
}

TEST(CampaignGolden, ExploreSpecJobsInvariant)
{
    for (std::size_t jobs : {std::size_t(4), std::size_t(8)})
        EXPECT_EQ(renderReport(serialExploreResult(), ReportFormat::Text),
                  renderReport(runSpecText(kExploreSpecJson, jobs),
                               ReportFormat::Text))
            << "jobs=" << jobs;
}

TEST(CampaignGolden, CliTextReportMatchesItsGolden)
{
    // What `wavedyn_cli run examples/campaign_suite.json` prints on
    // stdout; CI diffs the real binary's output against the same file.
    const char *path =
        WAVEDYN_TEST_DATA_DIR "/golden_campaign_suite.txt";
    std::string rendered =
        renderReport(serialSuiteResult(), ReportFormat::Text);

    if (std::getenv("WAVEDYN_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << path;
    }
    std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << path
        << " (regenerate with WAVEDYN_UPDATE_GOLDEN=1)";
    EXPECT_EQ(rendered, golden);
}

TEST(CampaignGolden, ParsedSpecsRoundTrip)
{
    // fromJson(toJson(s)) == s for the very specs the goldens pin.
    for (const char *json : {kSuiteSpecJson, kExploreSpecJson}) {
        CampaignSpec spec = parseCampaignSpec(json);
        EXPECT_EQ(campaignSpecFromJson(toJson(spec)), spec);
    }
}

TEST(CampaignGolden, CheckedInExampleSpecMatchesThePinnedCampaign)
{
    // examples/campaign_suite.json is documentation *and* CI input;
    // it must describe exactly the campaign this test pins. The
    // checked-in file is the canonical toJson form of the spec above.
    std::string example =
        readFile(WAVEDYN_TEST_DATA_DIR "/../../examples/campaign_suite.json");
    ASSERT_FALSE(example.empty()) << "missing examples/campaign_suite.json";
    CampaignSpec fromExample = parseCampaignSpec(example);
    CampaignSpec pinned = parseCampaignSpec(kSuiteSpecJson);
    EXPECT_EQ(fromExample, pinned);
    // Canonical form: the file is byte-identical to what --dump-spec
    // emits for it (writeJson + trailing newline).
    EXPECT_EQ(example, writeJson(toJson(fromExample)) + "\n");
}

} // anonymous namespace
} // namespace wavedyn
