#include "dse/pareto.hh"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace wavedyn
{

namespace
{

/** dominates() on k-score rows. */
bool
dominatesRow(const double *a, const double *b, std::size_t k)
{
    bool strict = false;
    for (std::size_t i = 0; i < k; ++i) {
        if (a[i] > b[i])
            return false;
        if (a[i] < b[i])
            strict = true;
    }
    return strict;
}

} // anonymous namespace

bool
dominates(const std::vector<double> &a, const std::vector<double> &b)
{
    assert(a.size() == b.size());
    return dominatesRow(a.data(), b.data(), a.size());
}

std::vector<std::size_t>
nonDominated(const double *scores, std::size_t n, std::size_t k)
{
    assert(k >= 1);
    auto row = [&](std::size_t i) { return scores + i * k; };
    // A dominating row is lexicographically smaller, so in sorted order
    // only earlier rows can dominate a row; and whenever one does, some
    // earlier survivor does too (dominance is transitive). One pass
    // against the survivors so far decides every row.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return std::lexicographical_compare(
                      row(a), row(a) + k, row(b), row(b) + k);
              });
    std::vector<std::size_t> front;
    for (std::size_t i : order) {
        bool dominated = false;
        for (std::size_t j = 0; j < front.size() && !dominated; ++j)
            dominated = dominatesRow(row(front[j]), row(i), k);
        if (!dominated)
            front.push_back(i);
    }
    std::sort(front.begin(), front.end());
    return front;
}

bool
canonicalLess(const FrontPoint &a, const FrontPoint &b)
{
    if (a.scores != b.scores)
        return a.scores < b.scores;
    return a.point < b.point;
}

std::vector<FrontPoint>
paretoFront(std::vector<FrontPoint> points)
{
    if (points.empty())
        return points;
    const std::size_t k = points.front().scores.size();
    std::vector<double> flat;
    flat.reserve(points.size() * k);
    for (const auto &p : points) {
        assert(p.scores.size() == k && k >= 1);
        flat.insert(flat.end(), p.scores.begin(), p.scores.end());
    }
    std::vector<FrontPoint> front;
    for (std::size_t i : nonDominated(flat.data(), points.size(), k))
        front.push_back(std::move(points[i]));
    std::sort(front.begin(), front.end(), canonicalLess);
    return front;
}

std::vector<FrontPoint>
mergeFronts(std::vector<std::vector<FrontPoint>> shards)
{
    std::vector<FrontPoint> all;
    std::size_t total = 0;
    for (const auto &s : shards)
        total += s.size();
    all.reserve(total);
    for (auto &s : shards)
        for (auto &p : s)
            all.push_back(std::move(p));
    return paretoFront(std::move(all));
}

} // namespace wavedyn
