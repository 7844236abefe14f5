/**
 * @file
 * Bit-identity of the shared decode window: SharedOpWindow::opAt(i)
 * must return exactly the i-th Cursor::next() op — every field — no
 * matter how reads, trims and ring growth interleave. Every pipeline
 * fetches through the window, so any divergence here would silently
 * change simulated results.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workload/shared_decode.hh"
#include "workload/stream.hh"

namespace wavedyn
{
namespace
{

void
expectSameOp(const MicroOp &a, const MicroOp &b, std::uint64_t i,
             const std::string &who)
{
    ASSERT_EQ(a.pc, b.pc) << who << " @" << i;
    ASSERT_EQ(a.effAddr, b.effAddr) << who << " @" << i;
    ASSERT_EQ(a.dep1, b.dep1) << who << " @" << i;
    ASSERT_EQ(a.dep2, b.dep2) << who << " @" << i;
    ASSERT_EQ(static_cast<int>(a.cls), static_cast<int>(b.cls))
        << who << " @" << i;
    ASSERT_EQ(a.branchTaken, b.branchTaken) << who << " @" << i;
    ASSERT_EQ(a.branchTarget, b.branchTarget) << who << " @" << i;
}

/**
 * Drive a window the way lockstep lanes do — a leading reader runs
 * ahead in bursts, a trailing reader re-reads retained ops, and the
 * window is trimmed to the trailing reader at irregular positions —
 * and check every read against a private cursor's sequence. The ring
 * starts at 4 ops, so it grows repeatedly while ops below the trim
 * point are already gone (tail > 0).
 */
void
expectWindowMatchesCursor(const BenchmarkProfile &profile,
                          const std::string &who)
{
    const std::uint64_t total = 1 << 13;
    InstructionStream stream(profile, total);
    std::vector<MicroOp> ref;
    InstructionStream::Cursor cursor(stream);
    for (std::uint64_t i = 0; i < total; ++i)
        ref.push_back(cursor.next());

    SharedOpWindow window(stream, 4);
    std::uint64_t lead = 0, lag = 0, trims = 0;
    bool grewAfterTrim = false;
    for (std::uint64_t k = 0; lead < total; ++k) {
        std::size_t capBefore = window.capacity();
        std::uint64_t burst = 1 + (k * 5) % 17;
        for (std::uint64_t b = 0; b < burst && lead < total; ++b, ++lead)
            expectSameOp(window.opAt(lead), ref[lead], lead, who);
        if (window.capacity() > capBefore && lag > 0)
            grewAfterTrim = true;

        // Trail the leader by an irregular span (0..48 ops).
        std::uint64_t span = (k * 13) % 49;
        std::uint64_t target = lead > span ? lead - span : 0;
        for (; lag < target; ++lag)
            expectSameOp(window.opAt(lag), ref[lag], lag, who);
        if (k % 3 != 2) {
            window.trim(lag);
            ++trims;
        }
        ASSERT_LE(window.liveSpan(), window.capacity()) << who;
    }
    EXPECT_EQ(window.decoded(), total) << who;
    EXPECT_GT(trims, 0u) << who;
    EXPECT_TRUE(grewAfterTrim) << who;
}

TEST(SharedOpWindow, MatchesCursorOnEveryFamily)
{
    for (WorkloadFamily f : allFamilies())
        expectWindowMatchesCursor(ScenarioGenerator(f, 7).generate(0),
                                  familyName(f));
}

TEST(SharedOpWindow, MatchesCursorOnPaperProfiles)
{
    for (const char *name : {"gcc", "mcf"})
        expectWindowMatchesCursor(benchmarkByName(name), name);
}

} // namespace
} // namespace wavedyn
