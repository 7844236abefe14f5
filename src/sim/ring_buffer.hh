/**
 * @file
 * Fixed-capacity power-of-two ring buffer.
 *
 * The pipeline's in-flight windows (ROB, fetch queue) are FIFO queues
 * with random access by logical index and a hard capacity known at
 * construction (SimConfig sizes). A ring over one flat allocation
 * gives them contiguous storage, O(1) masked indexing, and zero
 * allocations after construction — the properties the per-cycle issue
 * and dependency walks are hot on. Slots never move while an element
 * is alive, so pointers into the buffer stay valid until that
 * element's pop_front().
 */

#ifndef WAVEDYN_SIM_RING_BUFFER_HH
#define WAVEDYN_SIM_RING_BUFFER_HH

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/bits.hh"

namespace wavedyn
{

/** FIFO ring over one flat allocation; capacity rounds up to 2^k. */
template <typename T>
class RingBuffer
{
  public:
    /** @param capacity minimum element capacity (>= 1 enforced). */
    explicit RingBuffer(std::size_t capacity)
    {
        std::size_t cap = static_cast<std::size_t>(ceilPow2(capacity));
        slots.resize(cap);
        mask = cap - 1;
    }

    bool empty() const { return count == 0; }
    bool full() const { return count == mask + 1; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return mask + 1; }

    /** Element @p i positions behind the front. @pre i < size(). */
    T &
    operator[](std::size_t i)
    {
        assert(i < count);
        return slots[(head + i) & mask];
    }

    const T &
    operator[](std::size_t i) const
    {
        assert(i < count);
        return slots[(head + i) & mask];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[count - 1]; }
    const T &back() const { return (*this)[count - 1]; }

    /** Append at the back. @pre !full(). */
    void
    push_back(T v)
    {
        assert(!full());
        slots[(head + count) & mask] = std::move(v);
        ++count;
    }

    /** Drop the front element. @pre !empty(). */
    void
    pop_front()
    {
        assert(!empty());
        head = (head + 1) & mask;
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    std::vector<T> slots;
    std::size_t mask = 0;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace wavedyn

#endif // WAVEDYN_SIM_RING_BUFFER_HH
