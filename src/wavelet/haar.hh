/**
 * @file
 * Paper-convention Haar discrete wavelet transform (Section 2.1).
 *
 * The paper's running example transforms {3, 4, 20, 25, 15, 5, 20, 3}
 * into the overall average 11.875 followed by detail coefficients
 * {1.125}, {-9.5, -0.75}, {-0.5, -2.5, 5, 8.5}: approximations are plain
 * pairwise averages and details are half-differences (not the orthonormal
 * 1/sqrt(2) scaling). We reproduce that convention exactly so Figure 2
 * can be regenerated digit for digit; the orthonormal filter-bank
 * transform lives in dwt.hh.
 *
 * Coefficient layout for an input of length n = 2^L:
 *   index 0          overall average          (level 0 approximation)
 *   index 1          coarsest detail          (1 value)
 *   indices 2..3     next detail level        (2 values)
 *   ...
 *   indices n/2..n-1 finest detail level      (n/2 values)
 */

#ifndef WAVEDYN_WAVELET_HAAR_HH
#define WAVEDYN_WAVELET_HAAR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wavedyn
{

/** True when n is a nonzero power of two. */
bool isPowerOfTwo(std::size_t n);

/**
 * Full Haar decomposition of a power-of-two-length series.
 * @pre isPowerOfTwo(x.size()).
 * @return coefficient vector of the same length, layout documented above.
 */
std::vector<double> haarForward(const std::vector<double> &x);

/**
 * Inverse of haarForward. Perfectly reconstructs the original series
 * when given all coefficients.
 * @pre isPowerOfTwo(coeffs.size()).
 */
std::vector<double> haarInverse(const std::vector<double> &coeffs);

/**
 * Allocation-free haarInverse: writes the reconstruction into @p out
 * using @p scratch as the ping-pong buffer. Bit-identical to
 * haarInverse — same operations in the same order. Predictions do not
 * use it (they expand a HaarSegmentPlan); it serves per-row replays of
 * the sweep that invert one coefficient vector at a time.
 * @pre isPowerOfTwo(n); out and scratch hold n doubles each and do
 *      not alias coeffs or each other.
 */
void haarInverseInto(const double *coeffs, std::size_t n, double *out,
                     double *scratch);

/**
 * haarInverse of a vector whose only nonzero coefficients are a
 * selected few, as runs of equal samples. Detail j's children are
 * details 2j and 2j + 1, so a subtree of the layout with no selected
 * detail reconstructs to one value repeated over its samples, and a
 * selected detail j splits its average a into a + d_j and a - d_j.
 *
 * Registers hold those values: register 0 is coefficient 0 (zero when
 * it is not selected), and every op writes one new register, so s
 * selected details make at most 1 + 2s registers.
 *
 * Every sample is bit-identical to haarInverse of the masked vector
 * unless coefficient 0 is -0.0. haarInverse also adds each unselected
 * detail as +0.0, which changes only a -0.0 average (to +0.0), and a
 * register is -0.0 only when coefficient 0 is: x + d and x - d give
 * -0.0 only from x = -0.0. So the one difference is the sign of a zero
 * sample under a -0.0 root; a clamp, a count and a sum from +0.0
 * cannot tell the two apart.
 */
struct HaarSegmentPlan
{
    /** reg[dst] = reg[src] + coefficient slot (reg[src] - it when
     *  !add); slot indexes the selected list. */
    struct Op
    {
        std::uint32_t dst;
        std::uint32_t src;
        std::uint32_t slot;
        bool add;
    };

    /** samples consecutive samples equal to register reg. */
    struct Segment
    {
        std::uint32_t reg;
        std::uint32_t samples;
    };

    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    std::uint32_t rootSlot = kNoSlot; //!< slot of coefficient 0
    std::size_t registers = 1;
    std::vector<Op> ops;           //!< level order: sources first
    std::vector<Segment> segments; //!< sample order, covering n
};

/**
 * The segment plan of length-@p n vectors whose nonzero coefficients
 * are @p selected (distinct indices below n, any order; slot s is
 * selected[s]). Adjacent segments of one register are merged.
 * @pre isPowerOfTwo(n).
 */
HaarSegmentPlan haarSegmentPlan(std::size_t n,
                                const std::vector<std::size_t> &selected);

/**
 * A run of equal samples across a block of rows: @p samples
 * consecutive samples whose value in row r is values[r].
 */
struct TraceSegment
{
    const double *values;
    std::size_t samples;
};

/**
 * Resample a series to a power-of-two length by averaging (shrink) or
 * linear interpolation (grow). Used to coerce odd-length traces before
 * decomposition; the simulator normally produces power-of-two traces.
 */
std::vector<double> resampleToPowerOfTwo(const std::vector<double> &x);

/** Dyadic level count for length n = 2^L: returns L. @pre power of two. */
std::size_t haarLevels(std::size_t n);

/**
 * Identify the detail level of a coefficient index in the layout above.
 * Index 0 -> level 0 (the overall average); index i>0 lies in the detail
 * block starting at the largest power of two <= i, and the returned level
 * counts from 1 (coarsest detail) upward.
 */
std::size_t coefficientLevel(std::size_t index);

} // namespace wavedyn

#endif // WAVEDYN_WAVELET_HAAR_HH
