/**
 * @file
 * Adversarial tests for the on-disk result cache: bit-exact record
 * round-trips, rejection of truncated / bit-flipped / version-skewed
 * entries (all must read as misses, never errors), concurrent writers
 * racing one key, and GC age/size policy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cache/key.hh"
#include "cache/store.hh"
#include "sim/simulator.hh"

namespace fs = std::filesystem;

namespace wavedyn
{
namespace
{

/** A small but fully populated result (real simulate output). */
SimResult
sampleResult(unsigned salt = 0)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.robSize += salt;
    DvmConfig dvm;
    dvm.enabled = true; // populate dvmStats too
    return simulate(allBenchmarks().front(), cfg, 8, 64, dvm);
}

bool
bitIdentical(const SimResult &a, const SimResult &b)
{
    return encodeSimResult(a, "x") == encodeSimResult(b, "x");
}

class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root = (fs::temp_directory_path() /
                ("wavedyn-cache-test-" +
                 std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                   .string();
        fs::remove_all(root);
    }

    void TearDown() override { fs::remove_all(root); }

    std::string root;
};

TEST_F(ResultCacheTest, RecordRoundTripIsBitExact)
{
    SimResult r = sampleResult();
    std::string bytes = encodeSimResult(r, kSimVersion);
    auto back = decodeSimResult(bytes, kSimVersion);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(bitIdentical(*back, r));
}

TEST_F(ResultCacheTest, StoreThenLoadRoundTrips)
{
    ResultCache cache(root);
    CacheKey key{1, 2};
    SimResult r = sampleResult();
    cache.store(key, r);
    auto got = cache.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(bitIdentical(*got, r));
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 0u);
}

TEST_F(ResultCacheTest, AbsentKeyIsMiss)
{
    ResultCache cache(root);
    EXPECT_FALSE(cache.load(CacheKey{3, 4}).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(ResultCacheTest, ShardedLayout)
{
    ResultCache cache(root);
    CacheKey key = resultCacheKey(allBenchmarks().front(),
                                  SimConfig::baseline(), 8, 64,
                                  DvmConfig{});
    std::string hex = key.hex();
    EXPECT_EQ(cache.entryPath(key), root + "/" + hex.substr(0, 2) +
                                        "/" + hex.substr(2, 2) + "/" +
                                        hex + ".wdr");
}

TEST_F(ResultCacheTest, TruncatedEntryIsMissAtEveryLength)
{
    ResultCache cache(root);
    CacheKey key{5, 6};
    cache.store(key, sampleResult());
    std::string path = cache.entryPath(key);
    std::string full;
    {
        std::ifstream in(path, std::ios::binary);
        full.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_GT(full.size(), 64u);
    // Chop at several byte counts across every envelope region.
    for (std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{7},
          std::size_t{16}, full.size() / 2, full.size() - 1}) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(full.data(), static_cast<std::streamsize>(keep));
        out.close();
        EXPECT_FALSE(cache.load(key).has_value()) << "kept " << keep;
    }
    EXPECT_GE(cache.stats().badEntries, 6u);
}

TEST_F(ResultCacheTest, EveryBitFlipIsDetected)
{
    ResultCache cache(root);
    CacheKey key{7, 8};
    cache.store(key, sampleResult());
    std::string path = cache.entryPath(key);
    std::string full;
    {
        std::ifstream in(path, std::ios::binary);
        full.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    // Flip one bit in a spread of positions: header, version, payload
    // doubles, trailing checksum. Each must invalidate the record.
    for (std::size_t pos = 0; pos < full.size();
         pos += full.size() / 40 + 1) {
        std::string bad = full;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bad;
        out.close();
        EXPECT_FALSE(cache.load(key).has_value()) << "byte " << pos;
    }
    // And the cache heals: a fresh store overwrites the bad entry.
    SimResult r = sampleResult();
    cache.store(key, r);
    auto got = cache.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(bitIdentical(*got, r));
}

TEST_F(ResultCacheTest, VersionMismatchIsMissNotError)
{
    ResultCache old(root, "sim-v4");
    CacheKey key{9, 10};
    old.store(key, sampleResult());

    ResultCache current(root, "sim-v5");
    EXPECT_FALSE(current.load(key).has_value());
    EXPECT_EQ(current.stats().misses, 1u);

    // The record itself is valid — verify must report it as another
    // version, not corruption.
    CacheUsage u = current.usage();
    EXPECT_EQ(u.entries, 1u);
    EXPECT_EQ(u.invalidEntries, 0u);
    EXPECT_EQ(u.otherVersionEntries, 1u);
}

TEST_F(ResultCacheTest, ConcurrentWritersRacingOneKey)
{
    ResultCache cache(root);
    CacheKey key{11, 12};
    SimResult r = sampleResult();
    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t)
        writers.emplace_back([&] {
            for (int n = 0; n < 25; ++n)
                cache.store(key, r);
        });
    // Readers race the writers; every successful load must be the
    // complete record (rename atomicity), never a torn write.
    std::atomic<bool> torn{false};
    std::thread reader([&] {
        for (int n = 0; n < 200; ++n) {
            auto got = cache.load(key);
            if (got && !bitIdentical(*got, r))
                torn = true;
        }
    });
    for (auto &w : writers)
        w.join();
    reader.join();
    EXPECT_FALSE(torn.load());
    auto got = cache.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(bitIdentical(*got, r));
    // No temp files left behind.
    std::size_t strays = 0;
    for (auto &e : fs::recursive_directory_iterator(root))
        if (e.is_regular_file() &&
            e.path().filename().string().rfind(".tmp.", 0) == 0)
            ++strays;
    EXPECT_EQ(strays, 0u);
}

TEST_F(ResultCacheTest, GcAgeRemovesOnlyStrictlyOlderEntries)
{
    ResultCache cache(root);
    SimResult r = sampleResult();
    cache.store(CacheKey{1, 1}, r);
    cache.store(CacheKey{2, 2}, r);
    cache.store(CacheKey{3, 3}, r);

    std::int64_t now = cacheClockNow();
    auto age = [&](const CacheKey &k, std::int64_t seconds) {
        fs::last_write_time(
            cache.entryPath(k),
            fs::file_time_type(std::chrono::seconds(now - seconds)));
    };
    age(CacheKey{1, 1}, 10000); // older than limit: collected
    age(CacheKey{2, 2}, 3600);  // exactly at limit: kept
    // entry {3,3} keeps its fresh mtime: kept

    CacheGcResult g = cache.gc(3600, 0, now);
    EXPECT_EQ(g.scanned, 3u);
    EXPECT_EQ(g.removedAge, 1u);
    EXPECT_EQ(g.removedSize, 0u);
    EXPECT_FALSE(cache.load(CacheKey{1, 1}).has_value());
    EXPECT_TRUE(cache.load(CacheKey{2, 2}).has_value());
    EXPECT_TRUE(cache.load(CacheKey{3, 3}).has_value());
}

TEST_F(ResultCacheTest, GcSizeEvictsOldestFirst)
{
    ResultCache cache(root);
    SimResult r = sampleResult();
    cache.store(CacheKey{1, 1}, r);
    cache.store(CacheKey{2, 2}, r);
    cache.store(CacheKey{3, 3}, r);
    std::uint64_t each = cache.usage().bytes / 3;

    std::int64_t now = cacheClockNow();
    fs::last_write_time(
        cache.entryPath(CacheKey{2, 2}),
        fs::file_time_type(std::chrono::seconds(now - 5000)));

    // Budget for two entries: the oldest ({2,2}) must go, newer stay.
    CacheGcResult g = cache.gc(0, 2 * each + each / 2, now);
    EXPECT_EQ(g.removedSize, 1u);
    EXPECT_FALSE(cache.load(CacheKey{2, 2}).has_value());
    EXPECT_TRUE(cache.load(CacheKey{1, 1}).has_value());
    EXPECT_TRUE(cache.load(CacheKey{3, 3}).has_value());
    EXPECT_LE(g.bytesRemaining, 2 * each + each / 2);
}

TEST_F(ResultCacheTest, GcAlwaysCollectsInvalidEntries)
{
    ResultCache cache(root);
    cache.store(CacheKey{1, 1}, sampleResult());
    std::string path = cache.entryPath(CacheKey{1, 1});
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "garbage";
    }
    CacheGcResult g = cache.gc(0, 0, cacheClockNow());
    EXPECT_EQ(g.removedInvalid, 1u);
    EXPECT_FALSE(fs::exists(path));
}

TEST_F(ResultCacheTest, StoreFailureIsCountedNotSwallowed)
{
    // A cache root whose path is occupied by a regular file can never
    // materialise entry directories — every store must fail loudly in
    // the stats (chmod tricks don't work under root, a file does).
    {
        std::ofstream blocker(root, std::ios::binary);
        blocker << "not a directory";
    }
    ResultCache cache(root);
    EXPECT_FALSE(cache.store(CacheKey{1, 2}, sampleResult()));
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.stores, 0u);
    EXPECT_EQ(s.storeFailures, 1u);
    EXPECT_FALSE(cache.probeWritable());
    fs::remove(root);
}

TEST_F(ResultCacheTest, SuccessfulStoreReportsNoFailures)
{
    ResultCache cache(root);
    EXPECT_TRUE(cache.store(CacheKey{1, 2}, sampleResult()));
    EXPECT_EQ(cache.stats().storeFailures, 0u);
    EXPECT_TRUE(cache.probeWritable());
}

TEST_F(ResultCacheTest, GcNeverRemovesEntriesWithFutureMtimes)
{
    // Clock skew (NFS, a fixed system clock, a restored backup) can
    // leave entries dated in the future. Signed age math would make
    // their age a huge unsigned number and collect the freshest
    // entries first; they must be kept instead.
    ResultCache cache(root);
    SimResult r = sampleResult();
    cache.store(CacheKey{1, 1}, r);
    cache.store(CacheKey{2, 2}, r);

    std::int64_t now = cacheClockNow();
    fs::last_write_time(
        cache.entryPath(CacheKey{1, 1}),
        fs::file_time_type(std::chrono::seconds(now + 500000)));

    CacheGcResult g = cache.gc(3600, 0, now);
    EXPECT_EQ(g.scanned, 2u);
    EXPECT_EQ(g.removedAge, 0u);
    EXPECT_TRUE(cache.load(CacheKey{1, 1}).has_value());
    EXPECT_TRUE(cache.load(CacheKey{2, 2}).has_value());
}

TEST_F(ResultCacheTest, GcHugeMaxAgeKeepsEverything)
{
    // The other face of the skew bug: a u64 age limit near the max
    // must behave as "no limit", not wrap into "collect everything".
    ResultCache cache(root);
    cache.store(CacheKey{3, 3}, sampleResult());
    CacheGcResult g =
        cache.gc(std::numeric_limits<std::uint64_t>::max(), 0,
                 cacheClockNow());
    EXPECT_EQ(g.removedAge, 0u);
    EXPECT_TRUE(cache.load(CacheKey{3, 3}).has_value());
}

TEST_F(ResultCacheTest, ActiveCacheInstallAndClear)
{
    EXPECT_EQ(activeResultCache(), nullptr);
    auto cache = std::make_shared<ResultCache>(root);
    setActiveResultCache(cache);
    EXPECT_EQ(activeResultCache(), cache);
    setActiveResultCache(nullptr);
    EXPECT_EQ(activeResultCache(), nullptr);
}

TEST_F(ResultCacheTest, RepeatedLoadRereadsDiskRecord)
{
    // Nothing is held in memory between loads: a record corrupted
    // after a hit reads as a miss on the next load, and a store heals
    // it.
    ResultCache cache(root);
    CacheKey key{24, 1};
    SimResult r = sampleResult();
    ASSERT_TRUE(cache.store(key, r));
    auto got = cache.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(bitIdentical(*got, r));

    const std::string path = cache.entryPath(key);
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 40u);
    bytes[40] = static_cast<char>(bytes[40] ^ 0x55);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    EXPECT_FALSE(cache.load(key).has_value());
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.badEntries, 1u);

    ASSERT_TRUE(cache.store(key, r));
    got = cache.load(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(bitIdentical(*got, r));
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST_F(ResultCacheTest, ConstructingCreatesNothingAndStoreCreatesRoot)
{
    // Opening a cache only names a directory; maintenance commands
    // rely on a missing root staying missing. The first store makes
    // the root along with its shard directories.
    const std::string nested = root + "/a/b";
    ResultCache cache(nested);
    EXPECT_FALSE(fs::exists(root));
    EXPECT_FALSE(cache.load(CacheKey{25, 1}).has_value());
    EXPECT_TRUE(cache.scan().empty());
    EXPECT_FALSE(fs::exists(root));

    SimResult r = sampleResult();
    ASSERT_TRUE(cache.store(CacheKey{25, 1}, r));
    EXPECT_TRUE(fs::is_directory(nested));
    auto got = cache.load(CacheKey{25, 1});
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(bitIdentical(*got, r));
    EXPECT_EQ(cache.stats().stores, 1u);
}

} // anonymous namespace
} // namespace wavedyn
