/**
 * @file
 * Shared decode fan-out: decode each instruction once, feed N readers.
 *
 * A batched simulation runs N machine configurations over the *same*
 * instruction stream. Decoding is a pure function of the index, so
 * lanes need not decode privately: one streaming Cursor fills a ring
 * of MicroOps and every lane reads by absolute dynamic index. Because
 * the batch driver advances lanes in bounded quanta (chunked
 * lockstep), the spread between the slowest lane's read position and
 * the decode head stays small, and the ring holds only that live
 * span: the window grows on demand (amortised, rare after warmup) and
 * trim() releases everything below the slowest lane.
 *
 * Bit-identity: opAt(i) returns exactly what the i-th next() call on
 * a private Cursor returns — the same object produces the ops, in the
 * same order, through the same DecodeContext caching — so feeding N
 * pipelines from one window cannot change any simulated byte (pinned
 * by tests/workload/shared_decode_test.cc).
 */

#ifndef WAVEDYN_WORKLOAD_SHARED_DECODE_HH
#define WAVEDYN_WORKLOAD_SHARED_DECODE_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "workload/stream.hh"

namespace wavedyn
{

/** Ring of decoded MicroOps over one shared streaming cursor. */
class SharedOpWindow
{
  public:
    /**
     * @param stream the run's instruction stream
     * @param initialCapacity starting ring capacity in ops (rounded
     *        up to a power of two; grows on demand).
     */
    explicit SharedOpWindow(const InstructionStream &stream,
                            std::size_t initialCapacity = 4096);

    /**
     * The micro-op at dynamic index @p i, decoding forward as needed.
     * @pre i >= the last trim() position (released ops are gone).
     */
    const MicroOp &
    opAt(std::uint64_t i)
    {
        assert(i >= tail);
        if (i >= head)
            decodeTo(i);
        return ring[i & mask];
    }

    /** Release every op below @p minPos (min over lane positions). */
    void
    trim(std::uint64_t minPos)
    {
        if (minPos > tail)
            tail = minPos;
    }

    /** Ops decoded so far (the exclusive decode head). */
    std::uint64_t decoded() const { return head; }

    /** Current live span in ops (diagnostics / tests). */
    std::uint64_t liveSpan() const { return head - tail; }

    std::size_t capacity() const { return ring.size(); }

  private:
    void decodeTo(std::uint64_t i);
    void grow();

    InstructionStream::Cursor cursor;
    std::vector<MicroOp> ring; //!< power-of-two, indexed by i & mask
    std::uint64_t mask = 0;
    std::uint64_t tail = 0; //!< oldest retained op index
    std::uint64_t head = 0; //!< next index the cursor will decode
};

} // namespace wavedyn

#endif // WAVEDYN_WORKLOAD_SHARED_DECODE_HH
