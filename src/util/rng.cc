#include "util/rng.hh"

#include <cassert>
#include <cmath>

namespace wavedyn
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return splitmix64(a ^ (splitmix64(b) + 0x9e3779b97f4a7c15ull +
                           (a << 6) + (a >> 2)));
}

Rng::Rng(std::uint64_t seed)
    : state(seed ? seed : 0x9e3779b97f4a7c15ull), spare(0.0), hasSpare(false)
{
}

std::uint64_t
Rng::next()
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    assert(n > 0);
    // Rejection-free modulo is fine for our n << 2^64 use cases, but use
    // the multiply-shift trick to avoid modulo bias for small n.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    return lo + static_cast<std::int64_t>(
        below(static_cast<std::uint64_t>(hi - lo + 1)));
}

double
Rng::gaussian()
{
    if (hasSpare) {
        hasSpare = false;
        return spare;
    }
    double u1 = 0.0;
    while (u1 <= 1e-300)
        u1 = uniform();
    double u2 = uniform();
    double mag = std::sqrt(-2.0 * std::log(u1));
    spare = mag * std::sin(2.0 * M_PI * u2);
    hasSpare = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

void
Rng::shuffle(std::vector<std::size_t> &v)
{
    for (std::size_t i = v.size(); i > 1; --i) {
        std::size_t j = below(i);
        std::swap(v[i - 1], v[j]);
    }
}

std::uint64_t
Rng::geometric(double p, std::uint64_t cap)
{
    if (p >= 1.0)
        return 0;
    if (p <= 0.0)
        return cap;
    double u = uniform();
    double draws = std::log1p(-u) / std::log1p(-p);
    std::uint64_t n = static_cast<std::uint64_t>(draws);
    return n > cap ? cap : n;
}

Rng
Rng::split(std::uint64_t index) const
{
    // Mix the parent state with the stream index through two SplitMix64
    // finalizer rounds; hashCombine is order-sensitive so stream 0 of
    // stream 1 differs from stream 1 of stream 0.
    return Rng(hashCombine(state, index ^ 0xd2b74407b1ce6e93ull));
}

std::uint64_t
CounterRng::at(std::uint64_t c) const
{
    // Two Feistel-ish mixing rounds over (key, counter); equivalent in
    // spirit to Philox with fewer rounds, plenty for workload synthesis.
    std::uint64_t z = splitmix64(c ^ key);
    return splitmix64(z + (key << 1) + 0x632be59bd9b4e019ull);
}

double
CounterRng::uniformAt(std::uint64_t c) const
{
    return (at(c) >> 11) * 0x1.0p-53;
}

std::uint64_t
CounterRng::belowAt(std::uint64_t c, std::uint64_t n) const
{
    assert(n > 0);
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(at(c)) * n) >> 64);
}

bool
CounterRng::chanceAt(std::uint64_t c, double p) const
{
    return uniformAt(c) < p;
}

} // namespace wavedyn
