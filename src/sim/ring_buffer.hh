/**
 * @file
 * A ring of per-slot bits, keyed by a running sequence number.
 *
 * The pipeline keys its per-slot state by an op's seq modulo a
 * power-of-two slot count (sim/pipeline.hh). Its issue stage holds two
 * such flags per slot, unissued and ready, and reads them 64
 * consecutive slots at a time from the ROB head; one bit per slot in
 * 64-bit words makes that read two loads and two shifts.
 */

#ifndef WAVEDYN_SIM_RING_BUFFER_HH
#define WAVEDYN_SIM_RING_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bits.hh"

namespace wavedyn
{

/**
 * A ring of bits over 64-bit words, indexed modulo its size (a power
 * of two of at least 64): per-slot flags keyed by a running sequence
 * number and read 64 consecutive slots at a time.
 */
class BitRing
{
  public:
    /** @param bits minimum bit count; rounds up to 2^k >= 64. */
    explicit BitRing(std::size_t bits)
        : words(static_cast<std::size_t>(ceilPow2(bits < 64 ? 64 : bits)) /
                64),
          wordMask(words.size() - 1)
    {
    }

    std::size_t size() const { return words.size() * 64; }

    void
    set(std::uint64_t i)
    {
        words[(i >> 6) & wordMask] |= std::uint64_t{1} << (i & 63);
    }

    void
    reset(std::uint64_t i)
    {
        words[(i >> 6) & wordMask] &= ~(std::uint64_t{1} << (i & 63));
    }

    /**
     * Bits start, start + 1, ..., start + 63 (each modulo size()) as
     * bits 0..63 of one word: a 64-bit ring yields a rotation.
     */
    std::uint64_t
    window(std::uint64_t start) const
    {
        const std::size_t w = (start >> 6) & wordMask;
        const unsigned off = start & 63;
        // (x << 1) << (63 - off) is x << (64 - off), and 0 at off == 0,
        // where one shift by 64 would be undefined.
        return (words[w] >> off) |
               ((words[(w + 1) & wordMask] << 1) << (63 - off));
    }

  private:
    std::vector<std::uint64_t> words;
    std::size_t wordMask;
};

} // namespace wavedyn

#endif // WAVEDYN_SIM_RING_BUFFER_HH
