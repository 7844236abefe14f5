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
 * Allocation-free haarInverse for hot loops (the exploration sweep
 * inverts one coefficient vector per swept design point): writes the
 * reconstruction into @p out using @p scratch as the ping-pong
 * buffer. Bit-identical to haarInverse — same operations in the same
 * order.
 * @pre isPowerOfTwo(n); out and scratch hold n doubles each and do
 *      not alias coeffs or each other.
 */
void haarInverseInto(const double *coeffs, std::size_t n, double *out,
                     double *scratch);

/**
 * haarInverse of @p width coefficient vectors at once, stored by
 * position: rows[i] points at coefficient i of every vector, width
 * doubles. Writes the reconstructions sample by sample, sample t of
 * vector c at out[t * width + c], so every step runs across the
 * vectors, in place in @p out. Column c is bit-identical to
 * haarInverse of vector c: same operations in the same order.
 * @pre isPowerOfTwo(n); out holds n * width doubles and does not
 *      alias any row.
 */
void haarInverseColumns(const double *const *rows, std::size_t n,
                        std::size_t width, double *out);

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
