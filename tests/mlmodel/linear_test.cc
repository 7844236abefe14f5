/**
 * @file
 * Tests for the linear and global-mean baseline models.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "mlmodel/linear_model.hh"
#include "util/rng.hh"

namespace wavedyn
{
namespace
{

TEST(LinearModel, RecoversExactLinearMap)
{
    Rng rng(1);
    Matrix x(60, 3);
    std::vector<double> y(60);
    for (std::size_t i = 0; i < 60; ++i) {
        std::vector<double> row = {rng.uniform(), rng.uniform(),
                                   rng.uniform()};
        for (std::size_t k = 0; k < 3; ++k)
            x.at(i, k) = row[k];
        y[i] = 2.0 - row[0] + 3.0 * row[1] + 0.5 * row[2];
    }
    LinearModel m;
    m.fit(x, y);
    EXPECT_NEAR(m.bias(), 2.0, 1e-6);
    ASSERT_EQ(m.weights().size(), 3u);
    EXPECT_NEAR(m.weights()[0], -1.0, 1e-6);
    EXPECT_NEAR(m.weights()[1], 3.0, 1e-6);
    EXPECT_NEAR(m.weights()[2], 0.5, 1e-6);
    EXPECT_NEAR(m.predict({0.5, 0.5, 0.5}), 2.0 + (-1 + 3 + 0.5) * 0.5,
                1e-6);
}

TEST(LinearModel, FitsConstant)
{
    Matrix x(10, 2);
    Rng rng(2);
    for (std::size_t i = 0; i < 10; ++i)
        for (std::size_t k = 0; k < 2; ++k)
            x.at(i, k) = rng.uniform();
    std::vector<double> y(10, 5.5);
    LinearModel m;
    m.fit(x, y);
    EXPECT_NEAR(m.predict({0.2, 0.9}), 5.5, 1e-6);
}

TEST(LinearModel, UnderfitsQuadratic)
{
    // Sanity on the paper's point: linear models cannot capture
    // curvature. In-sample SSE stays well above zero.
    Matrix x(50, 1);
    std::vector<double> y(50);
    for (int i = 0; i < 50; ++i) {
        double v = i / 49.0;
        x.at(i, 0) = v;
        y[i] = (v - 0.5) * (v - 0.5);
    }
    LinearModel m;
    m.fit(x, y);
    double sse = 0.0;
    for (int i = 0; i < 50; ++i)
        sse += std::pow(y[i] - m.predict({x.at(i, 0)}), 2);
    EXPECT_GT(sse, 0.01);
}

TEST(LinearModel, NoisyFitStable)
{
    Rng rng(3);
    Matrix x(200, 2);
    std::vector<double> y(200);
    for (std::size_t i = 0; i < 200; ++i) {
        x.at(i, 0) = rng.uniform();
        x.at(i, 1) = rng.uniform();
        y[i] = 1.0 + x.at(i, 0) + rng.gaussian(0, 0.05);
    }
    LinearModel m;
    m.fit(x, y);
    EXPECT_NEAR(m.weights()[0], 1.0, 0.1);
    EXPECT_NEAR(m.weights()[1], 0.0, 0.1);
}

TEST(GlobalMeanModel, PredictsTrainingMean)
{
    Matrix x(4, 2);
    std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
    GlobalMeanModel m;
    m.fit(x, y);
    EXPECT_DOUBLE_EQ(m.predict({9.0, 9.0}), 2.5);
    EXPECT_DOUBLE_EQ(m.predict({0.0, 0.0}), 2.5);
}

TEST(GlobalMeanModel, Name)
{
    GlobalMeanModel m;
    EXPECT_EQ(m.name(), "global-mean");
}

TEST(ModelInterface, PredictManyMatchesPredict)
{
    Rng rng(4);
    Matrix x(20, 2);
    std::vector<double> y(20);
    for (std::size_t i = 0; i < 20; ++i) {
        x.at(i, 0) = rng.uniform();
        x.at(i, 1) = rng.uniform();
        y[i] = x.at(i, 0) * 2.0;
    }
    LinearModel m;
    m.fit(x, y);
    auto all = m.predictMany(x);
    ASSERT_EQ(all.size(), 20u);
    for (std::size_t i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(all[i], m.predict({x.at(i, 0), x.at(i, 1)}));
}

} // anonymous namespace
} // namespace wavedyn
