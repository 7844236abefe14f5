/**
 * @file
 * Golden simulator digests: simulate() over a fixed matrix of
 * benchmarks × machine shapes × DVM policies, each result reduced to
 * the FNV-1a-64 of its cache record bytes (encodeSimResult serialises
 * doubles by bit pattern), pinned in tests/data/golden_sim_digests.txt.
 *
 * The driver tests (tests/sim/batch_test.cc) compare simulate() with
 * an oracle that runs the same Pipeline, so a change inside the cycle
 * loop moves both sides alike; the campaign goldens print rounded
 * medians. This file pins the simulator's own bits across commits.
 * The matrix covers every generated workload family plus gcc, fetch
 * widths 2/4/8/16 (issue scan caps 32 and 48), IQ sizes on both sides
 * of the scan cap with a ROB large enough to fill them, small ROBs of
 * non-power-of-two sizes, and the DVM controller off and on.
 *
 * Regenerate with: WAVEDYN_UPDATE_GOLDEN=1 ctest -R golden_digests
 * (same toolchain caveat as tests/integration/golden_report_test.cc:
 * the workload model goes through libm).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/key.hh"
#include "cache/store.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

#ifndef WAVEDYN_TEST_DATA_DIR
#error "WAVEDYN_TEST_DATA_DIR must point at tests/data"
#endif

namespace wavedyn
{
namespace
{

const char *const kGoldenPath =
    WAVEDYN_TEST_DATA_DIR "/golden_sim_digests.txt";

constexpr std::size_t kSamples = 12;
constexpr std::size_t kPerInterval = 500;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::vector<BenchmarkProfile>
benchmarks()
{
    std::vector<BenchmarkProfile> out;
    for (WorkloadFamily f : allFamilies())
        out.push_back(ScenarioGenerator(f, 7).generate(0));
    out.push_back(benchmarkByName("gcc"));
    return out;
}

/** FNV-1a-64 of one run's cache record, as 16 hex digits. */
std::string
digestOf(const BenchmarkProfile &bench, const SimConfig &cfg, bool dvmOn)
{
    DvmConfig dvm;
    dvm.enabled = dvmOn;
    SimResult r = simulate(bench, cfg, kSamples, kPerInterval, dvm);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(
                      encodeSimResult(r, "golden"), kFnvBasis)));
    return hex;
}

/**
 * One line per run: "<bench> fw=W iq=N dvm=on|off <digest>" over a
 * 160-entry ROB, then "<bench> rob=R fw=W iq=N dvm=on|off <digest>"
 * over small ROBs whose sizes are not powers of two (24 and 40 round
 * to 32- and 64-slot windows, 100 to 128), so the per-slot state is
 * exercised at its smallest ring and across ring wrap-around.
 */
std::string
renderDigests()
{
    std::ostringstream os;
    for (const BenchmarkProfile &bench : benchmarks())
        for (unsigned fw : {2u, 4u, 8u, 16u})
            for (unsigned iq : {32u, 64u, 128u})
                for (bool dvmOn : {false, true}) {
                    SimConfig cfg = SimConfig::baseline();
                    cfg.fetchWidth = fw;
                    cfg.iqSize = iq;
                    cfg.robSize = 160;
                    cfg.lsqSize = 64;
                    os << bench.name << " fw=" << fw << " iq=" << iq
                       << " dvm=" << (dvmOn ? "on" : "off") << ' '
                       << digestOf(bench, cfg, dvmOn) << '\n';
                }
    for (const BenchmarkProfile &bench : benchmarks())
        for (unsigned rob : {24u, 40u, 100u})
            for (unsigned fw : {2u, 8u})
                for (unsigned iq : {16u, 32u})
                    for (bool dvmOn : {false, true}) {
                        SimConfig cfg = SimConfig::baseline();
                        cfg.fetchWidth = fw;
                        cfg.iqSize = iq;
                        cfg.robSize = rob;
                        cfg.lsqSize = 64;
                        os << bench.name << " rob=" << rob << " fw=" << fw
                           << " iq=" << iq
                           << " dvm=" << (dvmOn ? "on" : "off") << ' '
                           << digestOf(bench, cfg, dvmOn) << '\n';
                    }
    return os.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(GoldenSimDigests, SimulatorBitsMatchGolden)
{
    const std::string rendered = renderDigests();

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
        << "simulate() results drifted from the golden digests; if "
           "intentional, regenerate with WAVEDYN_UPDATE_GOLDEN=1";
}

} // anonymous namespace
} // namespace wavedyn
