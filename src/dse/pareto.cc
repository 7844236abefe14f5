#include "dse/pareto.hh"

#include <algorithm>
#include <cassert>
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
    // against the survivors so far decides every row. The sort key is
    // (first score, index), with ties on the first score broken by the
    // remaining scores; the order among equal rows cannot matter, as
    // equal rows dominate neither way.
    std::vector<std::pair<double, std::size_t>> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = {scores[i * k], i};
    std::sort(order.begin(), order.end(),
              [&](const auto &a, const auto &b) {
                  if (a.first < b.first)
                      return true;
                  if (b.first < a.first)
                      return false;
                  return std::lexicographical_compare(
                      row(a.second) + 1, row(a.second) + k,
                      row(b.second) + 1, row(b.second) + k);
              });
    // The scan tests the most recent dominator first: neighbours in
    // sorted order tend to fall to the same survivor.
    std::vector<std::size_t> front;
    for (const auto &key : order) {
        const std::size_t i = key.second;
        std::size_t j = 0;
        while (j < front.size() && !dominatesRow(row(front[j]), row(i), k))
            ++j;
        if (j == front.size())
            front.push_back(i);
        else
            std::rotate(front.begin(), front.begin() + j,
                        front.begin() + j + 1);
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

FlatFront
nonDominatedRows(const FlatFront *shards, std::size_t count)
{
    FlatFront all;
    std::size_t rows = 0;
    for (std::size_t s = 0; s < count; ++s) {
        rows += shards[s].size();
        if (shards[s].size() != 0) {
            assert(all.k == 0 || shards[s].k == all.k);
            all.k = shards[s].k;
        }
    }
    all.ids.reserve(rows);
    all.scores.reserve(rows * all.k);
    all.uncertainty.reserve(rows);
    for (std::size_t s = 0; s < count; ++s) {
        const FlatFront &f = shards[s];
        all.ids.insert(all.ids.end(), f.ids.begin(), f.ids.end());
        all.scores.insert(all.scores.end(), f.scores.begin(),
                          f.scores.end());
        all.uncertainty.insert(all.uncertainty.end(),
                               f.uncertainty.begin(), f.uncertainty.end());
    }
    FlatFront front;
    front.k = all.k;
    if (rows == 0)
        return front;
    for (std::size_t i : nonDominated(all.scores.data(), rows, all.k))
        front.push(all.ids[i], all.scores.data() + i * all.k,
                   all.uncertainty[i]);
    return front;
}

std::vector<FrontPoint>
mergeFlatFronts(const std::vector<FlatFront> &shards,
                const FrontPointBuilder &build)
{
    const FlatFront merged = nonDominatedRows(shards.data(), shards.size());
    std::vector<FrontPoint> front;
    front.reserve(merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i)
        front.push_back(build(merged.ids[i],
                              merged.scores.data() + i * merged.k,
                              merged.uncertainty[i]));
    std::sort(front.begin(), front.end(), canonicalLess);
    return front;
}

} // namespace wavedyn
