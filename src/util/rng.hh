/**
 * @file
 * Deterministic random number generation for wavedyn.
 *
 * Two generators are provided:
 *
 *  - Rng: a stateful SplitMix64 stream, used where a conventional
 *    sequential generator is convenient (sampling plans, tests).
 *
 *  - CounterRng: a stateless, counter-based generator. A draw is a pure
 *    function of (key, counter). The synthetic workload generator relies
 *    on this so that instruction i of benchmark b is identical no matter
 *    which microarchitecture configuration is being simulated, and no
 *    matter how the simulation is chunked into intervals.
 */

#ifndef WAVEDYN_UTIL_RNG_HH
#define WAVEDYN_UTIL_RNG_HH

#include <cstdint>
#include <vector>

namespace wavedyn
{

/** Mix a 64-bit value through the SplitMix64 finalizer. */
std::uint64_t splitmix64(std::uint64_t x);

/** Combine two 64-bit values into one well-mixed 64-bit hash. */
std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b);

/**
 * Stateful pseudo random generator (SplitMix64).
 *
 * Cheap, high quality for non-cryptographic simulation use, and fully
 * deterministic given the seed.
 */
class Rng
{
  public:
    /** Construct from a seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Standard normal draw (Box-Muller, cached spare). */
    double gaussian();

    /** Normal draw with given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Bernoulli draw with probability p of true. */
    bool chance(double p);

    /** Fisher-Yates shuffle of a vector of indices. */
    void shuffle(std::vector<std::size_t> &v);

    /** Geometric-ish draw: number of failures before success(p), capped. */
    std::uint64_t geometric(double p, std::uint64_t cap);

    /**
     * Derive an independent child stream for parallel task @p index.
     *
     * The child seed is a pure function of (current state, index), so
     * splitting is deterministic, does not advance this generator, and
     * equal indices always yield equal child streams. The parallel
     * experiment engine gives task i the stream split(i); results are
     * therefore identical no matter how tasks are scheduled across
     * threads.
     */
    Rng split(std::uint64_t index) const;


  private:
    std::uint64_t state;
    double spare;
    bool hasSpare;
};

/**
 * Stateless counter-based generator.
 *
 * draw(c) == draw(c) forever; streams keyed differently are independent
 * for all practical purposes.
 */
class CounterRng
{
  public:
    explicit CounterRng(std::uint64_t key) : key(key) {}

    /** Raw 64-bit value for counter c. */
    std::uint64_t at(std::uint64_t c) const;

    /** Uniform double in [0,1) for counter c. */
    double uniformAt(std::uint64_t c) const;

    /** Uniform integer in [0,n) for counter c. @pre n > 0. */
    std::uint64_t belowAt(std::uint64_t c, std::uint64_t n) const;

    /** Bernoulli draw for counter c. */
    bool chanceAt(std::uint64_t c, double p) const;

    std::uint64_t keyValue() const { return key; }

  private:
    std::uint64_t key;
};

} // namespace wavedyn

#endif // WAVEDYN_UTIL_RNG_HH
