/**
 * @file
 * Small bit-manipulation helpers shared by the power-of-two-sized
 * containers (sim/ring_buffer.hh, sim/calendar_queue.hh) and the
 * pipeline's issue select.
 */

#ifndef WAVEDYN_UTIL_BITS_HH
#define WAVEDYN_UTIL_BITS_HH

#include <cstdint>

namespace wavedyn
{

/** Smallest power of two >= n (>= 1; saturates above 2^63). */
constexpr std::uint64_t
ceilPow2(std::uint64_t n)
{
    std::uint64_t p = 1;
    while (p < n && p < (1ull << 63))
        p *= 2;
    return p;
}

/**
 * Set bits of @p x. Baseline x86-64 has no POPCNT instruction, and
 * __builtin_popcountll compiles to a libgcc call there; this SWAR sum
 * stays inline.
 */
constexpr unsigned
popcount64(std::uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
}

} // namespace wavedyn

#endif // WAVEDYN_UTIL_BITS_HH
