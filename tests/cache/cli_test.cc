/**
 * @file
 * Cache maintenance commands against the real CLI binary (path in
 * WAVEDYN_CLI, set by CTest): `cache stats|verify|gc` read an existing
 * cache directory. On a missing one they must fail with a message
 * naming it and create nothing — a mistyped path must not verify as
 * an empty, valid cache.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <sys/wait.h>

#include "cache/store.hh"
#include "sim/simulator.hh"

namespace fs = std::filesystem;

namespace wavedyn
{
namespace
{

std::string
cliPath()
{
    const char *env = std::getenv("WAVEDYN_CLI");
    return env != nullptr ? std::string(env) : std::string();
}

class CacheCliTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (cliPath().empty())
            GTEST_SKIP() << "WAVEDYN_CLI not set";
        dir = (fs::temp_directory_path() /
               ("wavedyn-cache-cli-" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                  .string();
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    /** Run `wavedyn_cli cache <action> --cache-dir <cacheDir>`; returns
     *  the exit code and leaves stderr in `err`. */
    int
    cache(const std::string &action, const std::string &cacheDir)
    {
        const std::string errPath = dir + "/stderr.txt";
        int rc = std::system((cliPath() + " cache " + action +
                              " --cache-dir '" + cacheDir +
                              "' > /dev/null 2> '" + errPath + "'")
                                 .c_str());
        std::ifstream in(errPath, std::ios::binary);
        err.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
        return rc < 0 ? rc : WEXITSTATUS(rc);
    }

    std::string dir;
    std::string err;
};

TEST_F(CacheCliTest, MaintenanceOnMissingDirectoryFailsAndCreatesNothing)
{
    const std::string missing = dir + "/no-such-cache";
    for (const char *action : {"verify", "stats", "gc"}) {
        SCOPED_TRACE(action);
        EXPECT_NE(cache(action, missing), 0);
        EXPECT_NE(err.find(missing), std::string::npos) << err;
        EXPECT_FALSE(fs::exists(missing));
    }
}

TEST_F(CacheCliTest, VerifyPassesOnAStoredCache)
{
    const std::string root = dir + "/cache";
    ResultCache store(root);
    ASSERT_TRUE(store.store(
        CacheKey{1, 2},
        simulate(allBenchmarks().front(), SimConfig::baseline(), 8, 64)));
    EXPECT_EQ(cache("verify", root), 0) << err;
    EXPECT_EQ(cache("stats", root), 0) << err;
}

} // namespace
} // namespace wavedyn
