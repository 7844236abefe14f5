/**
 * @file
 * Byte-identity goldens for the result cache at the campaign level:
 * the pinned suite and explore campaigns, run cold then warm through
 * runCampaign with an active cache, must render byte-for-byte
 * identical reports at jobs=1 and jobs=8, with the warm run served
 * entirely from disk (hit count == run count). A poisoned entry, or
 * entries missing because a run was killed before storing them, must
 * change nothing but the hit/miss split: caching can never move a byte
 * of any report, and rerunning against the cache is the crash-resume.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cache/store.hh"
#include "campaign/campaign.hh"
#include "campaign/report.hh"
#include "util/options.hh"

namespace fs = std::filesystem;

namespace wavedyn
{
namespace
{

/** The same pinned campaigns campaign_golden_test.cc runs uncached. */
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

struct CachedRun
{
    std::string report;
    std::uint64_t hits = 0, misses = 0, stores = 0;
};

class CacheGoldenTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root = (fs::temp_directory_path() /
                ("wavedyn-cache-golden-" +
                 std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                   .string();
        fs::remove_all(root);
    }

    void TearDown() override
    {
        setActiveResultCache(nullptr);
        fs::remove_all(root);
    }

    CachedRun runCached(const char *json, std::size_t jobs)
    {
        CampaignSpec spec = parseCampaignSpec(json);
        setActiveResultCache(std::make_shared<ResultCache>(root));
        setJobs(jobs);
        CampaignResult result = runCampaign(spec);
        setJobs(0);
        setActiveResultCache(nullptr);
        CachedRun run;
        run.report = renderReport(result, ReportFormat::Text);
        run.hits = result.cacheHits;
        run.misses = result.cacheMisses;
        run.stores = result.cacheStores;
        return run;
    }

    std::string root;
};

TEST_F(CacheGoldenTest, SuiteWarmRunIsByteIdenticalAllHits)
{
    CachedRun cold = runCached(kSuiteSpecJson, 1);
    EXPECT_EQ(cold.hits, 0u);
    EXPECT_GT(cold.misses, 0u);
    EXPECT_EQ(cold.stores, cold.misses);

    for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        CachedRun warm = runCached(kSuiteSpecJson, jobs);
        EXPECT_EQ(warm.report, cold.report)
            << "warm suite report differs at jobs=" << jobs;
        EXPECT_EQ(warm.hits, cold.misses)
            << "hit count != run count at jobs=" << jobs;
        EXPECT_EQ(warm.misses, 0u);
        EXPECT_EQ(warm.stores, 0u);
    }
}

TEST_F(CacheGoldenTest, SuiteColdCachedMatchesUncached)
{
    // The cache must be write-through-invisible on a cold run too.
    CampaignSpec spec = parseCampaignSpec(kSuiteSpecJson);
    setJobs(1);
    std::string uncached =
        renderReport(runCampaign(spec), ReportFormat::Text);
    setJobs(0);
    CachedRun cold = runCached(kSuiteSpecJson, 1);
    EXPECT_EQ(cold.report, uncached);
}

TEST_F(CacheGoldenTest, ExploreWarmRunIsByteIdenticalAllHits)
{
    CachedRun cold = runCached(kExploreSpecJson, 1);
    EXPECT_EQ(cold.hits, 0u);
    EXPECT_GT(cold.misses, 0u);

    for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        CachedRun warm = runCached(kExploreSpecJson, jobs);
        EXPECT_EQ(warm.report, cold.report)
            << "warm explore report differs at jobs=" << jobs;
        EXPECT_EQ(warm.hits, cold.misses)
            << "hit count != run count at jobs=" << jobs;
        EXPECT_EQ(warm.misses, 0u);
    }
}

TEST_F(CacheGoldenTest, SuiteThenExploreShareTheCache)
{
    // Overlapping runs between different campaign kinds hit the same
    // content-addressed entries (explore's refinement rounds re-use
    // nothing from suite here by construction of its points, but the
    // mixed workflow must at minimum not corrupt either report).
    CachedRun coldSuite = runCached(kSuiteSpecJson, 2);
    CachedRun coldExplore = runCached(kExploreSpecJson, 2);
    CachedRun warmSuite = runCached(kSuiteSpecJson, 2);
    CachedRun warmExplore = runCached(kExploreSpecJson, 2);
    EXPECT_EQ(warmSuite.report, coldSuite.report);
    EXPECT_EQ(warmExplore.report, coldExplore.report);
    EXPECT_EQ(warmSuite.misses, 0u);
    EXPECT_EQ(warmExplore.misses, 0u);
}

TEST_F(CacheGoldenTest, PoisonedEntryOnlyShiftsTheHitMissSplit)
{
    CachedRun cold = runCached(kSuiteSpecJson, 1);
    auto cacheEntries = [&] {
        std::vector<std::string> entries;
        for (auto &e : fs::recursive_directory_iterator(root))
            if (e.is_regular_file())
                entries.push_back(e.path().string());
        return entries;
    };

    // Corrupt one entry (truncate) and bit-flip another.
    std::vector<std::string> entries = cacheEntries();
    ASSERT_GE(entries.size(), 2u);
    fs::resize_file(entries[0], 10);
    {
        std::fstream f(entries[1],
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(50);
        f.put('\x55');
    }

    CachedRun healed = runCached(kSuiteSpecJson, 1);
    EXPECT_EQ(healed.report, cold.report)
        << "corrupted cache entries changed the report";
    EXPECT_EQ(healed.misses, 2u);
    EXPECT_EQ(healed.stores, 2u);
    EXPECT_EQ(healed.hits, cold.misses - 2);

    // And after healing, fully warm again.
    CachedRun warm = runCached(kSuiteSpecJson, 1);
    EXPECT_EQ(warm.hits, cold.misses);
    EXPECT_EQ(warm.misses, 0u);

    // A killed run leaves only the entries of the runs that finished;
    // rerunning the same campaign against the cache is the resume. It
    // recomputes exactly the missing runs and reports the same bytes.
    entries = cacheEntries();
    ASSERT_EQ(entries.size(), cold.misses);
    const std::size_t deleted = entries.size() / 2;
    for (std::size_t i = 0; i < deleted; ++i)
        ASSERT_TRUE(fs::remove(entries[i]));
    CachedRun resumed = runCached(kSuiteSpecJson, 8);
    EXPECT_EQ(resumed.report, cold.report)
        << "resuming from a partial cache changed the report";
    EXPECT_EQ(resumed.misses, deleted);
    EXPECT_EQ(resumed.hits, cold.misses - deleted);
}

} // anonymous namespace
} // namespace wavedyn
