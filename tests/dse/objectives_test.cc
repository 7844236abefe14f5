/**
 * @file
 * Objective definition tests: name round-trips, list parsing errors,
 * domain requirements, and the trace-to-scalar evaluations (including
 * the minimisation fold for maximised objectives) on both the map and
 * the borrowed-buffer form.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "dse/objectives.hh"
#include "util/rng.hh"

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

TEST(Objectives, ViewAndMapScoreBitForBit)
{
    // The sweep scores predicted traces through the view, simulated
    // runs go through the map: both must give the exact same double,
    // summed in the documented order.
    Rng rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.below(200);
        std::map<Domain, std::vector<double>> traces;
        for (Domain d : {Domain::Cpi, Domain::Power, Domain::Avf}) {
            auto &t = traces[d];
            for (std::size_t i = 0; i < n; ++i)
                t.push_back(rng.uniform(0.01, 40.0));
        }
        // A flat buffer holding the same traces back to back.
        std::vector<double> flat;
        TraceView view;
        view.length = n;
        for (const auto &entry : traces)
            flat.insert(flat.end(), entry.second.begin(),
                        entry.second.end());
        std::size_t offset = 0;
        for (const auto &entry : traces) {
            view.set(entry.first, flat.data() + offset);
            offset += n;
        }
        EXPECT_EQ(view.of(Domain::IqAvf), nullptr);

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
            EXPECT_EQ(objectiveValue(o, view), expected.at(o))
                << objectiveName(o);
            EXPECT_EQ(objectiveValue(o, traces), expected.at(o))
                << objectiveName(o);
            EXPECT_EQ(objectiveScore(o, view), objectiveScore(o, traces))
                << objectiveName(o);
        }
    }
}

TEST(Objectives, BlockViewScoresEachRunAlone)
{
    // A block of runs stored sample by sample scores every run exactly
    // as a one-run view of that run alone.
    Rng rng(7);
    const std::size_t n = 16, runs = 5;
    std::vector<std::vector<double>> cpi(runs), power(runs), avf(runs);
    std::vector<double> cpiBlock(n * runs), powerBlock(n * runs),
        avfBlock(n * runs);
    for (std::size_t r = 0; r < runs; ++r)
        for (std::size_t t = 0; t < n; ++t) {
            cpi[r].push_back(rng.uniform(0.01, 40.0));
            power[r].push_back(rng.uniform(0.01, 40.0));
            avf[r].push_back(rng.uniform(0.0, 1.0));
            cpiBlock[t * runs + r] = cpi[r].back();
            powerBlock[t * runs + r] = power[r].back();
            avfBlock[t * runs + r] = avf[r].back();
        }
    TraceView block;
    block.length = n;
    block.runs = runs;
    block.set(Domain::Cpi, cpiBlock.data());
    block.set(Domain::Power, powerBlock.data());
    block.set(Domain::Avf, avfBlock.data());
    for (Objective o : allObjectives()) {
        std::vector<double> scores(runs);
        objectiveScores(o, block, scores.data());
        for (std::size_t r = 0; r < runs; ++r) {
            TraceView one;
            one.length = n;
            one.set(Domain::Cpi, cpi[r].data());
            one.set(Domain::Power, power[r].data());
            one.set(Domain::Avf, avf[r].data());
            EXPECT_EQ(scores[r], objectiveScore(o, one))
                << objectiveName(o) << " run " << r;
        }
    }
}

} // anonymous namespace
} // namespace wavedyn
