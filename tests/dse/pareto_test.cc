/**
 * @file
 * Pareto frontier extraction tests: hand-built fronts with duplicates,
 * one-objective ties, single-point and all-dominated sets; a
 * brute-force cross-check on random point clouds; the shard-merge
 * identity (front of per-shard fronts == front of everything) the
 * explorer's chunked sweep relies on; the flat-array prefilter the
 * sweep runs before it builds any FrontPoint; and the flat chunk
 * fronts it merges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dse/pareto.hh"
#include "util/rng.hh"

namespace wavedyn
{
namespace
{

FrontPoint
fp(std::vector<double> scores, double tag = 0.0)
{
    FrontPoint p;
    p.point = {tag}; // distinct design points for tie-breaking
    p.scores = std::move(scores);
    p.values = p.scores;
    return p;
}

std::vector<std::vector<double>>
scoresOf(const std::vector<FrontPoint> &front)
{
    std::vector<std::vector<double>> out;
    for (const auto &p : front)
        out.push_back(p.scores);
    return out;
}

/** O(n^2) reference: keep points no other point dominates. */
std::vector<FrontPoint>
bruteFront(const std::vector<FrontPoint> &points)
{
    std::vector<FrontPoint> out;
    for (const auto &p : points) {
        bool dominated = false;
        for (const auto &q : points)
            dominated = dominated || dominates(q.scores, p.scores);
        if (!dominated)
            out.push_back(p);
    }
    std::sort(out.begin(), out.end(), canonicalLess);
    return out;
}

TEST(Dominates, StrictAndTies)
{
    EXPECT_TRUE(dominates({1.0, 2.0}, {1.0, 3.0}));
    EXPECT_TRUE(dominates({1.0, 2.0}, {2.0, 2.0}));
    EXPECT_TRUE(dominates({0.0, 0.0}, {1.0, 1.0}));
    EXPECT_FALSE(dominates({1.0, 2.0}, {1.0, 2.0})); // equal: neither
    EXPECT_FALSE(dominates({1.0, 3.0}, {2.0, 2.0})); // trade-off
    EXPECT_FALSE(dominates({2.0, 2.0}, {1.0, 3.0}));
}

TEST(ParetoFront, HandBuiltTwoObjective)
{
    // Front: (1,5), (2,3), (4,1). Dominated: (2,6) by (1,5); (5,5) by
    // everything; (4,2) by (4,1).
    auto front = paretoFront({fp({2.0, 6.0}, 1), fp({1.0, 5.0}, 2),
                              fp({5.0, 5.0}, 3), fp({2.0, 3.0}, 4),
                              fp({4.0, 2.0}, 5), fp({4.0, 1.0}, 6)});
    EXPECT_EQ(scoresOf(front),
              (std::vector<std::vector<double>>{
                  {1.0, 5.0}, {2.0, 3.0}, {4.0, 1.0}}));
}

TEST(ParetoFront, SinglePoint)
{
    auto front = paretoFront({fp({3.0, 3.0, 3.0})});
    ASSERT_EQ(front.size(), 1u);
    EXPECT_EQ(front[0].scores, (std::vector<double>{3.0, 3.0, 3.0}));
}

TEST(ParetoFront, EmptyInput)
{
    EXPECT_TRUE(paretoFront({}).empty());
}

TEST(ParetoFront, AllDominatedByOne)
{
    auto front = paretoFront({fp({5.0, 5.0}, 1), fp({1.0, 1.0}, 2),
                              fp({2.0, 1.0}, 3), fp({1.0, 2.0}, 4),
                              fp({9.0, 9.0}, 5)});
    ASSERT_EQ(front.size(), 1u);
    EXPECT_EQ(front[0].scores, (std::vector<double>{1.0, 1.0}));
}

TEST(ParetoFront, ExactDuplicatesBothSurvive)
{
    // Equal score vectors dominate in neither direction: both stay,
    // ordered by the design-point tie-break.
    auto front = paretoFront({fp({2.0, 2.0}, 7), fp({1.0, 3.0}, 1),
                              fp({2.0, 2.0}, 3)});
    ASSERT_EQ(front.size(), 3u);
    EXPECT_EQ(front[0].scores, (std::vector<double>{1.0, 3.0}));
    EXPECT_EQ(front[1].point, (DesignPoint{3.0}));
    EXPECT_EQ(front[2].point, (DesignPoint{7.0}));
}

TEST(ParetoFront, TiesOnOneObjective)
{
    // Same first score: only the minimal second score survives; an
    // equal second score at a larger first score is dominated too.
    auto front = paretoFront({fp({1.0, 4.0}, 1), fp({1.0, 2.0}, 2),
                              fp({1.0, 9.0}, 3), fp({3.0, 2.0}, 4)});
    EXPECT_EQ(scoresOf(front),
              (std::vector<std::vector<double>>{{1.0, 2.0}}));
}

TEST(ParetoFront, OneObjectiveKeepsAllMinimalTies)
{
    auto front = paretoFront({fp({2.0}, 1), fp({1.0}, 2), fp({1.0}, 3),
                              fp({5.0}, 4)});
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(front[0].scores, (std::vector<double>{1.0}));
    EXPECT_EQ(front[1].scores, (std::vector<double>{1.0}));
}

TEST(ParetoFront, InputOrderIrrelevant)
{
    std::vector<FrontPoint> pts = {fp({3.0, 1.0, 2.0}, 1),
                                   fp({1.0, 3.0, 2.0}, 2),
                                   fp({2.0, 2.0, 2.0}, 3),
                                   fp({3.0, 3.0, 3.0}, 4),
                                   fp({1.0, 3.0, 2.5}, 5)};
    auto sorted = paretoFront(pts);
    std::reverse(pts.begin(), pts.end());
    auto reversed = paretoFront(pts);
    ASSERT_EQ(sorted.size(), reversed.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        EXPECT_EQ(sorted[i].scores, reversed[i].scores);
        EXPECT_EQ(sorted[i].point, reversed[i].point);
    }
}

TEST(ParetoFront, MatchesBruteForceTwoAndThreeObjectives)
{
    Rng rng(0xbeef);
    for (std::size_t dims : {2u, 3u, 4u}) {
        for (int round = 0; round < 20; ++round) {
            std::vector<FrontPoint> pts;
            for (int i = 0; i < 60; ++i) {
                std::vector<double> s;
                for (std::size_t d = 0; d < dims; ++d)
                    s.push_back(static_cast<double>(rng.below(6)));
                pts.push_back(fp(std::move(s), i));
            }
            auto fast = paretoFront(pts);
            auto brute = bruteFront(pts);
            ASSERT_EQ(fast.size(), brute.size())
                << "dims=" << dims << " round=" << round;
            for (std::size_t i = 0; i < fast.size(); ++i) {
                EXPECT_EQ(fast[i].scores, brute[i].scores);
                EXPECT_EQ(fast[i].point, brute[i].point);
            }
        }
    }
}

TEST(ParetoFront, ShardMergeEqualsSingleShot)
{
    Rng rng(0xcafe);
    std::vector<FrontPoint> all;
    for (int i = 0; i < 200; ++i) {
        std::vector<double> s = {static_cast<double>(rng.below(12)),
                                 static_cast<double>(rng.below(12)),
                                 static_cast<double>(rng.below(12))};
        all.push_back(fp(std::move(s), i));
    }
    auto single = paretoFront(all);

    for (std::size_t shards : {2u, 3u, 7u}) {
        std::vector<std::vector<FrontPoint>> parts(shards);
        for (std::size_t i = 0; i < all.size(); ++i)
            parts[i % shards].push_back(all[i]);
        for (auto &part : parts)
            part = paretoFront(std::move(part));
        auto merged = mergeFronts(std::move(parts));
        ASSERT_EQ(merged.size(), single.size()) << shards << " shards";
        for (std::size_t i = 0; i < merged.size(); ++i) {
            EXPECT_EQ(merged[i].scores, single[i].scores);
            EXPECT_EQ(merged[i].point, single[i].point);
        }
    }
}

/** The FrontPoint a flat row stands for, as the tests build it. */
FrontPoint
flatPoint(std::size_t id, const double *scores, std::size_t k, double uncert)
{
    FrontPoint p = fp(std::vector<double>(scores, scores + k),
                      static_cast<double>(id));
    p.uncertainty = uncert;
    return p;
}

void
expectSameFront(const std::vector<FrontPoint> &got,
                const std::vector<FrontPoint> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].point, want[i].point) << what << " at " << i;
        EXPECT_EQ(got[i].scores, want[i].scores) << what << " at " << i;
        EXPECT_EQ(got[i].values, want[i].values) << what << " at " << i;
        EXPECT_EQ(got[i].uncertainty, want[i].uncertainty)
            << what << " at " << i;
    }
}

TEST(FlatFronts, MergeEqualsParetoFrontUnderTiesDuplicatesAndShardOrder)
{
    // Scores from a few levels tie heavily; some rows are copied
    // exactly (id, scores, uncertainty) into a second shard. Merging
    // the shards in any order, directly or after a grouped pre-filter,
    // must give paretoFront of every row's FrontPoint.
    Rng rng(0xf1a7);
    for (std::size_t k : {1u, 2u, 3u}) {
        for (int round = 0; round < 10; ++round) {
            const std::size_t shardCount = 2 + rng.below(6);
            std::vector<FlatFront> shards(shardCount);
            std::vector<FrontPoint> everything;
            for (FlatFront &sh : shards)
                sh.k = k;
            auto add = [&](FlatFront &sh, std::size_t id,
                           const std::vector<double> &sc, double u) {
                sh.push(id, sc.data(), u);
                everything.push_back(flatPoint(id, sc.data(), k, u));
            };
            for (std::size_t id = 0; id < 150; ++id) {
                std::vector<double> sc(k);
                for (double &v : sc)
                    v = static_cast<double>(rng.below(4));
                const double u = static_cast<double>(rng.below(3));
                add(shards[rng.below(shardCount)], id, sc, u);
                if (rng.below(5) == 0) // an exact duplicate elsewhere
                    add(shards[rng.below(shardCount)], id, sc, u);
            }
            const std::vector<FrontPoint> want = paretoFront(everything);
            auto build = [k](std::size_t id, const double *sc, double u) {
                return flatPoint(id, sc, k, u);
            };
            for (int perm = 0; perm < 3; ++perm) {
                for (std::size_t i = shards.size(); i > 1; --i)
                    std::swap(shards[i - 1], shards[rng.below(i)]);
                const std::string what = "k " + std::to_string(k) +
                                         " round " +
                                         std::to_string(round);
                expectSameFront(mergeFlatFronts(shards, build), want, what);
                std::vector<FlatFront> grouped;
                for (std::size_t g = 0; g < shards.size(); g += 2)
                    grouped.push_back(nonDominatedRows(
                        shards.data() + g,
                        std::min<std::size_t>(2, shards.size() - g)));
                expectSameFront(mergeFlatFronts(grouped, build), want,
                                what + " grouped");
            }
        }
    }
}

TEST(FlatFronts, EmptyShardsMergeToAnEmptyFront)
{
    auto build = [](std::size_t id, const double *sc, double u) {
        return flatPoint(id, sc, 1, u);
    };
    EXPECT_TRUE(mergeFlatFronts({}, build).empty());
    EXPECT_TRUE(mergeFlatFronts(std::vector<FlatFront>(3), build).empty());
}

TEST(ParetoFront, CanonicalOrderIsSorted)
{
    Rng rng(0xf00d);
    std::vector<FrontPoint> pts;
    for (int i = 0; i < 100; ++i)
        pts.push_back(fp({rng.uniform(), rng.uniform()}, i));
    auto front = paretoFront(pts);
    EXPECT_TRUE(std::is_sorted(front.begin(), front.end(),
                               canonicalLess));
}

TEST(NonDominated, PrefilterKeepsTheFront)
{
    // Small integer scores force ties on single objectives, and copied
    // rows make exact duplicates; both must survive exactly as
    // paretoFront keeps them.
    Rng rng(0x5eed);
    for (std::size_t k = 1; k <= 4; ++k) {
        for (int round = 0; round < 40; ++round) {
            const std::size_t n = 1 + rng.below(90);
            std::vector<double> flat;
            for (std::size_t i = 0; i < n; ++i) {
                std::size_t src = i > 0 && rng.chance(0.25) ? rng.below(i)
                                                             : i;
                for (std::size_t d = 0; d < k; ++d)
                    flat.push_back(src == i
                                       ? static_cast<double>(rng.below(5))
                                       : flat[src * k + d]);
            }
            std::vector<FrontPoint> all;
            for (std::size_t i = 0; i < n; ++i)
                all.push_back(fp({flat.begin() + i * k,
                                  flat.begin() + (i + 1) * k},
                                 static_cast<double>(i)));

            std::vector<std::size_t> brute;
            for (std::size_t i = 0; i < n; ++i) {
                bool dominated = false;
                for (std::size_t j = 0; j < n; ++j)
                    dominated = dominated ||
                                dominates(all[j].scores, all[i].scores);
                if (!dominated)
                    brute.push_back(i);
            }
            std::vector<std::size_t> kept = nonDominated(flat.data(), n, k);
            ASSERT_EQ(kept, brute) << "k=" << k << " round=" << round;

            // The survivors in canonical order are the whole front.
            std::vector<FrontPoint> filtered;
            for (std::size_t i : kept)
                filtered.push_back(all[i]);
            std::sort(filtered.begin(), filtered.end(), canonicalLess);
            auto full = paretoFront(all);
            ASSERT_EQ(filtered.size(), full.size());
            for (std::size_t i = 0; i < full.size(); ++i) {
                EXPECT_EQ(filtered[i].scores, full[i].scores);
                EXPECT_EQ(filtered[i].point, full[i].point);
            }
        }
    }
    EXPECT_TRUE(nonDominated(nullptr, 0, 3).empty());
}

TEST(NonDominated, HeavyTiesMatchBruteForceUnderPermutation)
{
    // Up to 2,000 rows: the first score takes at most three values, so
    // nearly every comparison of the sort falls to the remaining
    // scores, and up to half the rows copy an earlier row exactly. The
    // rest of a row is either small integers (ties everywhere) or
    // continuous draws (ties on the first score only). The filter must
    // keep exactly the rows nothing dominates, and a permuted input
    // must keep the same rows, mapped through the permutation.
    Rng rng(0x71e5);
    for (std::size_t k = 1; k <= 5; ++k) {
        for (std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{37}, std::size_t{500},
                              std::size_t{2000}}) {
            const bool continuous = rng.chance(0.5);
            const double copies = rng.uniform(0.0, 0.5);
            std::vector<double> flat;
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t src =
                    i > 0 && rng.chance(copies) ? rng.below(i) : i;
                for (std::size_t d = 0; d < k; ++d) {
                    double v = d == 0 ? static_cast<double>(rng.below(3))
                               : continuous ? rng.uniform()
                                            : static_cast<double>(
                                                  rng.below(4));
                    flat.push_back(src == i ? v : flat[src * k + d]);
                }
            }
            std::vector<std::size_t> brute;
            for (std::size_t i = 0; i < n; ++i) {
                bool dominated = false;
                for (std::size_t j = 0; j < n && !dominated; ++j)
                    dominated = dominates(
                        {flat.begin() + j * k, flat.begin() + (j + 1) * k},
                        {flat.begin() + i * k, flat.begin() + (i + 1) * k});
                if (!dominated)
                    brute.push_back(i);
            }
            const std::vector<std::size_t> kept =
                nonDominated(flat.data(), n, k);
            ASSERT_EQ(kept, brute) << "k=" << k << " n=" << n;

            std::vector<std::size_t> perm(n);
            for (std::size_t i = 0; i < n; ++i)
                perm[i] = i;
            rng.shuffle(perm);
            std::vector<double> permuted;
            for (std::size_t i : perm)
                permuted.insert(permuted.end(), flat.begin() + i * k,
                                flat.begin() + (i + 1) * k);
            std::vector<std::size_t> mapped;
            for (std::size_t i : nonDominated(permuted.data(), n, k))
                mapped.push_back(perm[i]);
            std::sort(mapped.begin(), mapped.end());
            EXPECT_EQ(mapped, kept) << "k=" << k << " n=" << n;
        }
    }
}

} // anonymous namespace
} // namespace wavedyn
