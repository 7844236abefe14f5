/**
 * @file
 * Cycle-bucketed calendar queue for completion events.
 *
 * The pipeline schedules every event a bounded number of cycles ahead
 * (its longest load latency plus its largest fixed execution latency,
 * the queue's fixed horizon) and visits every cycle exactly once, so
 * a ring of per-cycle buckets replaces a binary heap: O(1) amortised
 * schedule/drain instead of O(log n), no per-event allocation in
 * steady state.
 *
 * Storage is a node pool with per-bucket intrusive lists; freed nodes
 * are recycled, so the pool grows (on demand, by doubling) only to
 * the peak number of pending events — at most one per
 * issued-but-uncommitted ROB entry in the pipeline.
 *
 * Drain order is the exact order the original std::priority_queue
 * popped in — ascending (cycle, seq) — by sorting each (small)
 * bucket's events before firing them. That ordering is
 * bit-significant: completion handlers update floating-point AVF
 * accumulators, and FP addition is not associative, so a different
 * within-cycle order would change simulated results.
 *
 * nextEventCycle() supports the pipeline's idle-cycle fast-forward:
 * every pending event lies within (now, now + mask] (bounded schedule
 * horizon, drained every cycle), so each bucket holds events of at
 * most one pending cycle and scanning bucket heads for non-emptiness
 * finds the next event in O(distance).
 */

#ifndef WAVEDYN_SIM_CALENDAR_QUEUE_HH
#define WAVEDYN_SIM_CALENDAR_QUEUE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "util/bits.hh"

namespace wavedyn
{

/** Calendar of (cycle, payload) events with a power-of-two horizon. */
class CalendarQueue
{
  public:
    /** No next event within the asked range. */
    static constexpr std::uint64_t kNoEvent = ~0ull;

    /**
     * @param horizon longest schedulable distance in cycles; the
     *        bucket ring rounds up to a power of two and never grows.
     */
    explicit CalendarQueue(std::uint64_t horizon)
    {
        std::uint64_t cap = ceilPow2(horizon + 1);
        heads.assign(cap, kNil);
        mask = cap - 1;
    }

    std::size_t pending() const { return count; }

    /**
     * Schedule @p seq to fire at @p eventCycle.
     * @pre eventCycle > now (events in the past would never drain)
     *      and eventCycle - now is within the constructor's horizon.
     */
    void
    schedule([[maybe_unused]] std::uint64_t now, std::uint64_t eventCycle,
             std::uint64_t seq)
    {
        assert(eventCycle > now);
        assert(eventCycle - now <= mask);
        std::uint32_t idx = allocNode();
        std::uint64_t b = eventCycle & mask;
        nodes[idx].cycle = eventCycle;
        nodes[idx].seq = seq;
        nodes[idx].next = heads[b];
        heads[b] = idx;
        ++count;
        if (eventCycle < minHint)
            minHint = eventCycle;
    }

    /**
     * Invoke fn(seq) for every event scheduled at @p cycle, in
     * ascending seq order, then recycle the bucket's nodes. The caller
     * must drain every cycle in order; events never fire early or
     * late.
     */
    template <typename Fn>
    void
    drain(std::uint64_t cycle, Fn &&fn)
    {
        if (count == 0)
            return;
        // The caller drains in cycle order, so whatever remains after
        // this call fires strictly later — keep the hint monotone.
        if (minHint <= cycle)
            minHint = cycle + 1;
        std::uint64_t b = cycle & mask;
        std::uint32_t idx = heads[b];
        if (idx == kNil)
            return;
        scratch.clear();
        while (idx != kNil) {
            assert(nodes[idx].cycle == cycle);
            scratch.push_back(nodes[idx].seq);
            std::uint32_t nxt = nodes[idx].next;
            nodes[idx].next = freeHead;
            freeHead = idx;
            idx = nxt;
        }
        heads[b] = kNil;
        count -= scratch.size();
        if (count == 0)
            minHint = kNoEvent;
        if (scratch.size() > 1)
            std::sort(scratch.begin(), scratch.end());
        for (std::uint64_t seq : scratch)
            fn(seq);
    }

    /**
     * Earliest cycle in [from, stopAt] holding a pending event, or
     * kNoEvent when there is none in range. Events beyond the bucket
     * horizon cannot be pending (see file comment), so the scan is
     * additionally capped at from + mask.
     *
     * A monotone lower bound on the earliest pending event
     * (maintained by schedule/drain, tightened here) lets repeated
     * queries skip re-scanning buckets already known empty, so the
     * idle fast-forward's scans amortise to O(1) per query instead of
     * O(skip distance).
     */
    std::uint64_t
    nextEventCycle(std::uint64_t from, std::uint64_t stopAt)
    {
        if (count == 0)
            return kNoEvent;
        std::uint64_t last = from + mask;
        if (stopAt < last)
            last = stopAt;
        std::uint64_t c = from;
        if (minHint > c)
            c = minHint; // nothing pending below the lower bound
        for (; c <= last; ++c)
            if (heads[c & mask] != kNil) {
                minHint = c;
                return c;
            }
        // No events at or below `last`; remember that.
        minHint = last + 1;
        return kNoEvent;
    }

  private:
    static constexpr std::uint32_t kNil = ~0u;

    struct Node
    {
        std::uint64_t cycle = 0;
        std::uint64_t seq = 0;
        std::uint32_t next = kNil;
    };

    std::uint32_t
    allocNode()
    {
        if (freeHead != kNil) {
            std::uint32_t idx = freeHead;
            freeHead = nodes[idx].next;
            return idx;
        }
        if (fresh == nodes.size())
            nodes.resize(std::max<std::size_t>(64, nodes.size() * 2));
        return static_cast<std::uint32_t>(fresh++);
    }

    std::vector<std::uint32_t> heads; //!< bucket list heads
    std::vector<Node> nodes;          //!< pool; indices stay valid
    std::uint64_t mask = 0;
    std::size_t fresh = 0; //!< pool nodes handed out at least once
    std::uint32_t freeHead = kNil;
    std::size_t count = 0;
    /** Lower bound on the earliest pending event cycle (kNoEvent when
     *  empty). Never exceeds the true minimum while count > 0. */
    std::uint64_t minHint = kNoEvent;
    std::vector<std::uint64_t> scratch; //!< drain sort buffer
};

} // namespace wavedyn

#endif // WAVEDYN_SIM_CALENDAR_QUEUE_HH
