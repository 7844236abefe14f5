/**
 * @file
 * Objective definition tests: name round-trips, list parsing errors,
 * domain requirements, and the trace-to-scalar evaluations (including
 * the minimisation fold for maximised objectives) on both the map and
 * the segment form the sweep scores.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <vector>

#include "dse/objectives.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace wavedyn
{
namespace
{

TEST(Objectives, NamesRoundTrip)
{
    for (Objective o : allObjectives()) {
        Objective parsed;
        ASSERT_TRUE(parseObjective(objectiveName(o), parsed))
            << objectiveName(o);
        EXPECT_EQ(parsed, o);
    }
}

TEST(Objectives, ParseListHappyPath)
{
    auto objs = parseObjectiveList("cpi,energy,avf");
    ASSERT_EQ(objs.size(), 3u);
    EXPECT_EQ(objs[0], Objective::Cpi);
    EXPECT_EQ(objs[1], Objective::Energy);
    EXPECT_EQ(objs[2], Objective::Avf);

    auto one = parseObjectiveList("bips");
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], Objective::Bips);
}

TEST(Objectives, ParseListRejectsBadInput)
{
    EXPECT_THROW(parseObjectiveList(""), std::invalid_argument);
    EXPECT_THROW(parseObjectiveList("cpi,"), std::invalid_argument);
    EXPECT_THROW(parseObjectiveList(",cpi"), std::invalid_argument);
    EXPECT_THROW(parseObjectiveList("cpi,watts"), std::invalid_argument);
    EXPECT_THROW(parseObjectiveList("cpi,cpi"), std::invalid_argument);
    EXPECT_THROW(parseObjectiveList("CPI"), std::invalid_argument);
}

TEST(Objectives, DomainRequirements)
{
    EXPECT_EQ(domainsOf(Objective::Cpi),
              (std::vector<Domain>{Domain::Cpi}));
    EXPECT_EQ(domainsOf(Objective::Energy),
              (std::vector<Domain>{Domain::Cpi, Domain::Power}));
    EXPECT_EQ(domainsOf(Objective::Avf),
              (std::vector<Domain>{Domain::Avf}));

    // Union is deduplicated and in allDomains() order.
    auto domains = domainsFor({Objective::Energy, Objective::Cpi,
                               Objective::Avf});
    EXPECT_EQ(domains, (std::vector<Domain>{Domain::Cpi, Domain::Power,
                                            Domain::Avf}));
    EXPECT_EQ(domainsFor({Objective::Bips}),
              (std::vector<Domain>{Domain::Cpi}));
}

TEST(Objectives, ValuesFromTraces)
{
    std::map<Domain, std::vector<double>> traces;
    traces[Domain::Cpi] = {1.0, 2.0, 3.0};   // mean 2
    traces[Domain::Power] = {10.0, 20.0, 30.0}; // mean 20
    traces[Domain::Avf] = {0.1, 0.2, 0.3};   // mean 0.2

    EXPECT_DOUBLE_EQ(objectiveValue(Objective::Cpi, traces), 2.0);
    EXPECT_DOUBLE_EQ(objectiveValue(Objective::Power, traces), 20.0);
    EXPECT_DOUBLE_EQ(objectiveValue(Objective::Avf, traces), 0.2);
    EXPECT_DOUBLE_EQ(objectiveValue(Objective::Bips, traces), 0.5);
    // Energy: mean of the interval-wise product, not product of means:
    // (10*1 + 20*2 + 30*3) / 3 = 140/3.
    EXPECT_DOUBLE_EQ(objectiveValue(Objective::Energy, traces),
                     140.0 / 3.0);
}

TEST(Objectives, ScoreFoldsMaximisedObjectives)
{
    std::map<Domain, std::vector<double>> traces;
    traces[Domain::Cpi] = {2.0, 2.0};
    EXPECT_DOUBLE_EQ(objectiveScore(Objective::Cpi, traces), 2.0);
    EXPECT_TRUE(maximised(Objective::Bips));
    EXPECT_DOUBLE_EQ(objectiveScore(Objective::Bips, traces), -0.5);
    EXPECT_FALSE(maximised(Objective::Energy));
}

/** Mean of t[0..n) summed i = 0..n-1 from 0.0 — the pinned order. */
double
orderedMean(const std::vector<double> &t)
{
    double acc = 0.0;
    for (double v : t)
        acc += v;
    return acc / static_cast<double>(t.size());
}

TEST(Objectives, MapScoresInDocumentedOrder)
{
    // Simulated runs are scored through the map: every sum adds the
    // samples in order from 0.0, the order the sweep's segment sums
    // reproduce.
    Rng rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.below(200);
        std::map<Domain, std::vector<double>> traces;
        for (Domain d : {Domain::Cpi, Domain::Power, Domain::Avf}) {
            auto &t = traces[d];
            for (std::size_t i = 0; i < n; ++i)
                t.push_back(rng.uniform(0.01, 40.0));
        }
        const auto &cpi = traces.at(Domain::Cpi);
        const auto &power = traces.at(Domain::Power);
        double energy = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            energy += power[i] * cpi[i];
        const std::map<Objective, double> expected = {
            {Objective::Cpi, orderedMean(cpi)},
            {Objective::Bips, 1.0 / orderedMean(cpi)},
            {Objective::Power, orderedMean(power)},
            {Objective::Energy, energy / static_cast<double>(n)},
            {Objective::Avf, orderedMean(traces.at(Domain::Avf))},
        };
        for (Objective o : allObjectives()) {
            EXPECT_EQ(objectiveValue(o, traces), expected.at(o))
                << objectiveName(o);
            EXPECT_EQ(objectiveScore(o, traces),
                      maximised(o) ? -expected.at(o) : expected.at(o))
                << objectiveName(o);
        }
    }
}

TEST(Objectives, SegmentViewScoresLikeTheMap)
{
    // Each domain's rows share one random split of the n samples into
    // runs, a different split per domain, so energy steps through
    // boundaries of either list. Row r written out sample by sample
    // must score bit-for-bit as the map does.
    Rng rng(7);
    const Domain domains[] = {Domain::Cpi, Domain::Power, Domain::Avf};
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 1 + rng.below(130);
        const std::size_t rows = 1 + rng.below(64);
        std::vector<std::vector<double>> values[3];
        std::vector<TraceSegment> segs[3];
        SegmentView view;
        view.rows = rows;
        for (std::size_t j = 0; j < 3; ++j) {
            for (std::size_t t = 0; t < n;) {
                const std::size_t run =
                    std::min<std::size_t>(1 + rng.below(9), n - t);
                values[j].emplace_back();
                for (std::size_t r = 0; r < rows; ++r)
                    values[j].back().push_back(rng.uniform(0.01, 40.0));
                segs[j].push_back({nullptr, run});
                t += run;
            }
            for (std::size_t i = 0; i < segs[j].size(); ++i)
                segs[j][i].values = values[j][i].data();
            view.set(domains[j], segs[j]);
        }
        EXPECT_EQ(view.of(Domain::IqAvf), nullptr);
        for (Objective o : allObjectives()) {
            std::vector<double> scores(rows);
            scoreSegments(o, view, scores.data());
            for (std::size_t r = 0; r < rows; ++r) {
                std::map<Domain, std::vector<double>> traces;
                for (std::size_t j = 0; j < 3; ++j)
                    for (const TraceSegment &seg : segs[j])
                        traces[domains[j]].insert(
                            traces[domains[j]].end(), seg.samples,
                            seg.values[r]);
                EXPECT_EQ(scores[r], objectiveScore(o, traces))
                    << objectiveName(o) << " row " << r << " n " << n;
            }
        }
    }
}

/** A random block of @p rows rows per domain: samples split into runs
 *  of 1 to 9 samples (a sparse-Haar shape), or @p oneSample segments
 *  (an orthonormal transform's shape); a different split per domain.
 *  Some values are negative, so BIPS meets its zero branch. */
struct RandomBlock
{
    std::vector<std::vector<double>> values[3];
    std::vector<TraceSegment> segs[3];
    SegmentView view;

    RandomBlock(Rng &rng, std::size_t rows, bool oneSample)
    {
        const Domain domains[] = {Domain::Cpi, Domain::Power, Domain::Avf};
        const std::size_t n = 64;
        view.rows = rows;
        for (std::size_t j = 0; j < 3; ++j) {
            for (std::size_t t = 0; t < n;) {
                const std::size_t run =
                    oneSample ? 1
                              : std::min<std::size_t>(1 + rng.below(9),
                                                      n - t);
                values[j].emplace_back();
                for (std::size_t r = 0; r < rows; ++r)
                    values[j].back().push_back(rng.uniform(-5.0, 40.0));
                segs[j].push_back({nullptr, run});
                t += run;
            }
            for (std::size_t i = 0; i < segs[j].size(); ++i)
                segs[j][i].values = values[j][i].data();
            view.set(domains[j], segs[j]);
        }
    }

    RandomBlock(const RandomBlock &) = delete;
    RandomBlock &operator=(const RandomBlock &) = delete;
};

/** Bit patterns of @p v. */
std::vector<std::uint64_t>
bitsOf(const std::vector<double> &v)
{
    std::vector<std::uint64_t> bits(v.size());
    std::memcpy(bits.data(), v.data(), v.size() * sizeof(double));
    return bits;
}

/** Blocks of 1, 15, 17, 63 and 64 rows: below, around and at the
 *  vector widths and the 16-row groups, and a full block. */
const std::size_t kKernelRows[] = {1, 15, 17, 63, 64};

TEST(Objectives, ScoreKernelBaselineScoresLikeTheMap)
{
    Rng rng(11);
    for (bool oneSample : {false, true})
        for (std::size_t rows : kKernelRows) {
            RandomBlock block(rng, rows, oneSample);
            for (Objective o : allObjectives()) {
                std::vector<double> scores(rows);
                scoreSegments(o, block.view, scores.data(),
                              SimdVariant::Baseline);
                std::vector<double> expected(rows);
                for (std::size_t r = 0; r < rows; ++r) {
                    std::map<Domain, std::vector<double>> traces;
                    for (Domain d : domainsOf(o))
                        for (const TraceSegment &seg : *block.view.of(d))
                            traces[d].insert(traces[d].end(), seg.samples,
                                             seg.values[r]);
                    expected[r] = objectiveScore(o, traces);
                }
                EXPECT_EQ(bitsOf(scores), bitsOf(expected))
                    << objectiveName(o) << " rows " << rows;
            }
        }
}

TEST(Objectives, ScoreKernelAvx2MatchesBaselineBitForBit)
{
    if (!simdVariantSupported(SimdVariant::Avx2))
        GTEST_SKIP() << "this CPU has no AVX2";
    Rng rng(13);
    for (bool oneSample : {false, true})
        for (std::size_t rows : kKernelRows)
            for (int trial = 0; trial < 4; ++trial) {
                RandomBlock block(rng, rows, oneSample);
                for (Objective o : allObjectives()) {
                    std::vector<double> base(rows);
                    std::vector<double> avx2(rows);
                    scoreSegments(o, block.view, base.data(),
                                  SimdVariant::Baseline);
                    scoreSegments(o, block.view, avx2.data(),
                                  SimdVariant::Avx2);
                    EXPECT_EQ(bitsOf(avx2), bitsOf(base))
                        << objectiveName(o) << " rows " << rows
                        << (oneSample ? " one-sample" : " runs");
                }
            }
}

} // anonymous namespace
} // namespace wavedyn
