#include "wavelet/haar.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace wavedyn
{

bool
isPowerOfTwo(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

std::vector<double>
haarForward(const std::vector<double> &x)
{
    assert(isPowerOfTwo(x.size()));
    std::size_t n = x.size();
    std::vector<double> out(n, 0.0);
    std::vector<double> approx = x;

    // Peel one level at a time; details for length len land at
    // out[len/2 .. len-1], the final average lands at out[0].
    std::size_t len = n;
    while (len > 1) {
        std::size_t half = len / 2;
        std::vector<double> next(half);
        for (std::size_t i = 0; i < half; ++i) {
            double a = approx[2 * i];
            double b = approx[2 * i + 1];
            next[i] = (a + b) / 2.0;
            out[half + i] = (a - b) / 2.0;
        }
        approx = std::move(next);
        len = half;
    }
    out[0] = approx[0];
    return out;
}

std::vector<double>
haarInverse(const std::vector<double> &coeffs)
{
    assert(isPowerOfTwo(coeffs.size()));
    std::size_t n = coeffs.size();
    std::vector<double> approx = {coeffs[0]};

    std::size_t len = 1;
    while (len < n) {
        std::vector<double> next(len * 2);
        for (std::size_t i = 0; i < len; ++i) {
            double avg = approx[i];
            double det = coeffs[len + i];
            next[2 * i] = avg + det;
            next[2 * i + 1] = avg - det;
        }
        approx = std::move(next);
        len *= 2;
    }
    return approx;
}

void
haarInverseInto(const double *coeffs, std::size_t n, double *out,
                double *scratch)
{
    assert(isPowerOfTwo(n));
    // Ping-pong between the two buffers, starting in whichever one
    // leaves the final doubling pass writing into out (levels swaps).
    std::size_t levels = haarLevels(n);
    double *a = levels % 2 == 0 ? out : scratch;
    double *b = a == out ? scratch : out;
    a[0] = coeffs[0];
    std::size_t len = 1;
    while (len < n) {
        for (std::size_t i = 0; i < len; ++i) {
            double avg = a[i];
            double det = coeffs[len + i];
            b[2 * i] = avg + det;
            b[2 * i + 1] = avg - det;
        }
        std::swap(a, b);
        len *= 2;
    }
    assert(a == out);
}

HaarSegmentPlan
haarSegmentPlan(std::size_t n, const std::vector<std::size_t> &selected)
{
    assert(isPowerOfTwo(n));
    using Plan = HaarSegmentPlan;
    std::vector<std::uint32_t> slotOf(n, Plan::kNoSlot);
    for (std::size_t s = 0; s < selected.size(); ++s) {
        assert(selected[s] < n && slotOf[selected[s]] == Plan::kNoSlot);
        slotOf[selected[s]] = static_cast<std::uint32_t>(s);
    }
    // below[j]: detail j or one of its descendants is selected.
    std::vector<bool> below(n, false);
    for (std::size_t j = n; j-- > 1;)
        below[j] = slotOf[j] != Plan::kNoSlot ||
                   (2 * j < n && (below[2 * j] || below[2 * j + 1]));

    Plan plan;
    plan.rootSlot = slotOf[0];
    // Ops are generated depth first, keyed by node, then put in node
    // (level) order; registers are numbered as they are made.
    std::vector<std::pair<std::size_t, Plan::Op>> ops;
    auto segment = [&](std::uint32_t reg, std::size_t samples) {
        if (!plan.segments.empty() && plan.segments.back().reg == reg)
            plan.segments.back().samples +=
                static_cast<std::uint32_t>(samples);
        else
            plan.segments.push_back(
                {reg, static_cast<std::uint32_t>(samples)});
    };
    // Node j carries register reg, its average, over span samples.
    auto walk = [&](auto &self, std::size_t j, std::uint32_t reg,
                    std::size_t span) -> void {
        if (j >= n || !below[j]) {
            segment(reg, span);
            return;
        }
        std::uint32_t even = reg;
        std::uint32_t odd = reg;
        if (slotOf[j] != Plan::kNoSlot) {
            even = static_cast<std::uint32_t>(plan.registers++);
            odd = static_cast<std::uint32_t>(plan.registers++);
            ops.push_back({j, {even, reg, slotOf[j], true}});
            ops.push_back({j, {odd, reg, slotOf[j], false}});
        }
        self(self, 2 * j, even, span / 2);
        self(self, 2 * j + 1, odd, span / 2);
    };
    walk(walk, 1, 0, n);
    std::stable_sort(ops.begin(), ops.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (const auto &op : ops)
        plan.ops.push_back(op.second);
    return plan;
}

std::vector<double>
resampleToPowerOfTwo(const std::vector<double> &x)
{
    if (x.empty())
        return {};
    if (isPowerOfTwo(x.size()))
        return x;

    // Target the nearest power of two below the length (>= 1).
    std::size_t target = 1;
    while (target * 2 <= x.size())
        target *= 2;

    std::vector<double> out(target, 0.0);
    double ratio = static_cast<double>(x.size()) /
                   static_cast<double>(target);
    for (std::size_t i = 0; i < target; ++i) {
        double start = static_cast<double>(i) * ratio;
        double end = start + ratio;
        // Average the source samples overlapping [start, end).
        double acc = 0.0;
        double weight = 0.0;
        std::size_t s0 = static_cast<std::size_t>(start);
        std::size_t s1 = static_cast<std::size_t>(std::ceil(end));
        s1 = std::min(s1, x.size());
        for (std::size_t s = s0; s < s1; ++s) {
            double lo = std::max(start, static_cast<double>(s));
            double hi = std::min(end, static_cast<double>(s + 1));
            double w = hi - lo;
            if (w <= 0.0)
                continue;
            acc += x[s] * w;
            weight += w;
        }
        out[i] = weight > 0.0 ? acc / weight : 0.0;
    }
    return out;
}

std::size_t
haarLevels(std::size_t n)
{
    assert(isPowerOfTwo(n));
    std::size_t l = 0;
    while (n > 1) {
        n /= 2;
        ++l;
    }
    return l;
}

std::size_t
coefficientLevel(std::size_t index)
{
    if (index == 0)
        return 0;
    std::size_t level = 1;
    std::size_t block = 1;
    while (block * 2 <= index) {
        block *= 2;
        ++level;
    }
    return level;
}

} // namespace wavedyn
