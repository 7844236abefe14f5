/**
 * @file
 * Telemetry acceptance tests against the real CLI binary (path in
 * WAVEDYN_CLI, set by CTest): the tentpole's hard constraint is that
 * telemetry observes and never participates — stdout reports must be
 * byte-identical with --trace-out/--metrics-out on or off, at jobs 1
 * and 8, and the recorded span (name, ph) multiset must be identical
 * for every --jobs setting. The side files themselves must parse with
 * util/json, pass the nesting validator, and satisfy the campaign
 * invariants (cache hits + misses == scheduler runs; histogram counts
 * match their buckets) that `wavedyn_cli trace` enforces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "util/json.hh"
#include "telemetry/trace.hh"

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

/** Run a shell command, discarding its stderr; returns exit code. */
int
shell(const std::string &cmd)
{
    int rc = std::system((cmd + " 2>/dev/null").c_str());
    return rc < 0 ? rc : WEXITSTATUS(rc);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** The pinned smoke-scale suite spec the other goldens use. */
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

/** Sorted (name, ph) multiset of the non-metadata events. */
std::vector<std::pair<std::string, std::string>>
spanMultiset(const JsonValue &doc)
{
    std::vector<std::pair<std::string, std::string>> keys;
    const JsonValue &events = doc.at("traceEvents");
    for (std::size_t i = 0; i < events.size(); ++i) {
        const std::string &ph = events.at(i).at("ph").asString();
        if (ph == "M")
            continue;
        keys.emplace_back(events.at(i).at("name").asString(), ph);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

std::uint64_t
counterOf(const JsonValue &metrics, const std::string &name)
{
    const JsonValue *v = metrics.at("counters").find(name);
    return v != nullptr ? v->asUint64() : 0;
}

class TelemetryGoldenTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (cliPath().empty())
            GTEST_SKIP() << "WAVEDYN_CLI not set";
        dir = (fs::temp_directory_path() /
               ("wavedyn-telemetry-golden-" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                  .string();
        fs::remove_all(dir);
        fs::create_directories(dir);
        spec = dir + "/suite.json";
        std::ofstream out(spec, std::ios::binary);
        out << kSuiteSpecJson;
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
    std::string spec;
};

TEST_F(TelemetryGoldenTest, ReportsAreByteIdenticalWithTelemetryOnOff)
{
    std::string plain = dir + "/plain.txt";
    ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs 1 > " + plain),
              0);

    for (int jobs : {1, 8}) {
        std::string tag = std::to_string(jobs);
        std::string out = dir + "/traced" + tag + ".txt";
        ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs " + tag +
                        " --trace-out " + dir + "/t" + tag + ".json" +
                        " --metrics-out " + dir + "/m" + tag + ".json" +
                        " > " + out),
                  0);
        EXPECT_EQ(slurp(out), slurp(plain))
            << "telemetry moved report bytes at jobs=" << jobs;
    }
}

TEST_F(TelemetryGoldenTest, SpanMultisetIsJobsInvariant)
{
    for (int jobs : {1, 8}) {
        std::string tag = std::to_string(jobs);
        ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs " + tag +
                        " --trace-out " + dir + "/t" + tag + ".json" +
                        " --metrics-out " + dir + "/m" + tag + ".json" +
                        " > /dev/null"),
                  0);
    }
    JsonValue t1 = parseJson(slurp(dir + "/t1.json"));
    JsonValue t8 = parseJson(slurp(dir + "/t8.json"));
    EXPECT_EQ(spanMultiset(t1), spanMultiset(t8));
    EXPECT_FALSE(spanMultiset(t1).empty());

    // Jobs-invariant counters too: everything that is not a duration.
    JsonValue m1 = parseJson(slurp(dir + "/m1.json"));
    JsonValue m8 = parseJson(slurp(dir + "/m8.json"));
    for (const char *name :
         {"scheduler.runs", "scheduler.computed", "cache.hits",
          "cache.misses", "cache.stores", "sim.cycles",
          "sim.idle_skipped_cycles"})
        EXPECT_EQ(counterOf(m1, name), counterOf(m8, name)) << name;
    EXPECT_GT(counterOf(m1, "sim.cycles"), 0u);
}

TEST_F(TelemetryGoldenTest, TraceValidatesAndNestsProperly)
{
    ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs 4" +
                    " --trace-out " + dir + "/t.json > /dev/null"),
              0);
    JsonValue doc = parseJson(slurp(dir + "/t.json"));
    std::vector<std::string> problems = validateTraceDoc(doc);
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());

    // And the CLI's own validator agrees.
    EXPECT_EQ(shell(cliPath() + " trace " + dir + "/t.json >/dev/null"),
              0);
}

TEST_F(TelemetryGoldenTest, CacheInvariantHitsPlusMissesEqualsRuns)
{
    std::string cache = dir + "/cache";
    // Cold then warm, both against the same cache.
    for (const char *pass : {"cold", "warm"}) {
        ASSERT_EQ(shell(cliPath() + " run " + spec + " --jobs 4" +
                        " --cache-dir " + cache + " --metrics-out " +
                        dir + "/" + pass + ".json > /dev/null"),
                  0);
    }
    JsonValue cold = parseJson(slurp(dir + "/cold.json"));
    JsonValue warm = parseJson(slurp(dir + "/warm.json"));
    EXPECT_GT(counterOf(cold, "scheduler.runs"), 0u);
    EXPECT_EQ(counterOf(cold, "cache.hits") +
                  counterOf(cold, "cache.misses"),
              counterOf(cold, "scheduler.runs"));
    EXPECT_EQ(counterOf(warm, "cache.misses"), 0u);
    EXPECT_EQ(counterOf(warm, "cache.hits"),
              counterOf(warm, "scheduler.runs"));
    // A fully warm run computes nothing.
    EXPECT_EQ(counterOf(warm, "scheduler.computed"), 0u);

    // The CLI validator checks both documents clean.
    EXPECT_EQ(shell(cliPath() + " trace " + dir +
                    "/cold.json >/dev/null"),
              0);
    EXPECT_EQ(shell(cliPath() + " trace " + dir +
                    "/warm.json >/dev/null"),
              0);
}

TEST_F(TelemetryGoldenTest, TraceSubcommandRejectsBrokenDocuments)
{
    // Overlapping spans on one track must fail validation.
    std::string bad = dir + "/bad.json";
    {
        std::ofstream out(bad, std::ios::binary);
        out << R"({"traceEvents":[
          {"name":"a","cat":"t","ph":"X","ts":0,"dur":100,"pid":0,"tid":0},
          {"name":"b","cat":"t","ph":"X","ts":50,"dur":100,"pid":0,"tid":0}
        ]})";
    }
    EXPECT_EQ(shell(cliPath() + " trace " + bad + " >/dev/null"), 1);

    // Metrics whose cache counters disagree with the run count too.
    std::string badMetrics = dir + "/badm.json";
    {
        std::ofstream out(badMetrics, std::ios::binary);
        out << R"({"schema":"wavedyn-metrics-v1","bucket_bounds_us":[],
          "counters":{"cache.hits":3,"cache.misses":1,
                      "scheduler.runs":5},
          "gauges":{},"histograms":{}})";
    }
    EXPECT_EQ(shell(cliPath() + " trace " + badMetrics + " >/dev/null"),
              1);
}

} // namespace
} // namespace wavedyn
