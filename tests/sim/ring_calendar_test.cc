/**
 * @file
 * Unit tests for the pipeline's hot-path containers: the BitRing
 * behind the issue select's per-slot flags and the CalendarQueue
 * behind completion events. The calendar queue's drain order is
 * checked against the std::priority_queue it replaced — within-cycle
 * order is bit-significant for the simulation (FP AVF accumulation).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hh"
#include "sim/ring_buffer.hh"
#include "util/rng.hh"

namespace wavedyn
{
namespace
{

TEST(BitRing, SizeRoundsUpToAPowerOfTwoOfAtLeast64)
{
    EXPECT_EQ(BitRing(0).size(), 64u);
    EXPECT_EQ(BitRing(24).size(), 64u);
    EXPECT_EQ(BitRing(64).size(), 64u);
    EXPECT_EQ(BitRing(65).size(), 128u);
    EXPECT_EQ(BitRing(160).size(), 256u);
}

TEST(BitRing, WindowMatchesBitByBitReferenceAtEveryStart)
{
    // Every start offset (and starts one lap further on, as running
    // sequence numbers are) against a plain bool reference, over
    // random fills, an empty ring, a full ring and single bits.
    Rng rng(0xb17);
    for (std::size_t n : {64u, 128u, 256u}) {
        for (int fill = 0; fill < 6; ++fill) {
            BitRing ring(n);
            std::vector<bool> ref(n, false);
            for (std::size_t i = 0; i < n; ++i) {
                bool on = fill == 0   ? false
                          : fill == 1 ? true
                          : fill == 2 ? i == n - 1
                          : fill == 3 ? i == 0
                                      : rng.below(fill) == 0;
                // Set then reset every bit once, so reset is exercised.
                ring.set(i + n);
                if (!on)
                    ring.reset(i);
                ref[i] = on;
            }
            for (std::uint64_t start = 0; start < 2 * n; ++start) {
                std::uint64_t want = 0;
                for (unsigned b = 0; b < 64; ++b)
                    if (ref[(start + b) % n])
                        want |= std::uint64_t{1} << b;
                ASSERT_EQ(ring.window(start), want)
                    << "size " << n << " fill " << fill << " start "
                    << start;
            }
        }
    }
}

TEST(CalendarQueue, DrainsAtExactCycle)
{
    CalendarQueue cq(16);
    cq.schedule(0, 3, 100);
    cq.schedule(0, 5, 101);
    std::vector<std::uint64_t> seen;
    for (std::uint64_t c = 1; c <= 6; ++c)
        cq.drain(c, [&](std::uint64_t seq) {
            seen.push_back(c * 1000 + seq);
        });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{3100, 5101}));
    EXPECT_EQ(cq.pending(), 0u);
}

TEST(CalendarQueue, WithinCycleOrderIsAscendingSeq)
{
    // Insertion order deliberately scrambled: out-of-order issue can
    // schedule a younger instruction's completion before an older
    // one's for the same cycle.
    CalendarQueue cq(8);
    cq.schedule(0, 4, 9);
    cq.schedule(1, 4, 2);
    cq.schedule(2, 4, 7);
    cq.schedule(3, 4, 1);
    std::vector<std::uint64_t> seen;
    for (std::uint64_t c = 1; c <= 4; ++c)
        cq.drain(c, [&](std::uint64_t seq) { seen.push_back(seq); });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 7, 9}));
}

TEST(CalendarQueue, MatchesPriorityQueueReferenceRandomised)
{
    // Randomised equivalence against the heap the calendar replaced:
    // same events in, same (cycle, seq) pop order out.
    using Event = std::pair<std::uint64_t, std::uint64_t>;
    Rng rng(0xca1e);
    for (int round = 0; round < 20; ++round) {
        const std::uint64_t horizon = 1 + rng.below(300);
        CalendarQueue cq(horizon);
        std::priority_queue<Event, std::vector<Event>,
                            std::greater<Event>>
            ref;
        std::vector<Event> calendarOut, refOut;
        std::uint64_t seq = 0;
        for (std::uint64_t cycle = 0; cycle < 400; ++cycle) {
            // Random bursts of schedules, like an issue stage.
            std::uint64_t n = rng.below(4);
            for (std::uint64_t k = 0; k < n; ++k) {
                std::uint64_t at = cycle + 1 + rng.below(horizon);
                // Scramble seq assignment so within-cycle insertion
                // order differs from seq order.
                std::uint64_t s = seq ^ (rng.below(8) << 2);
                cq.schedule(cycle, at, s);
                ref.push({at, s});
                ++seq;
            }
            cq.drain(cycle + 1, [&](std::uint64_t sq) {
                calendarOut.push_back({cycle + 1, sq});
            });
            while (!ref.empty() && ref.top().first <= cycle + 1) {
                refOut.push_back(ref.top());
                ref.pop();
            }
        }
        EXPECT_EQ(calendarOut, refOut) << "round " << round;
    }
}

} // anonymous namespace
} // namespace wavedyn
