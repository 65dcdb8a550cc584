/**
 * @file
 * Optimizer tests on standard benchmark functions: COBYLA-lite (the
 * optimizer the paper and every pipeline use) must reach known optima,
 * honor evaluation budgets, and produce monotone best-so-far traces;
 * the grid and random searches must cover their domains.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "opt/cobyla_lite.hpp"
#include "opt/grid_search.hpp"

namespace redqaoa {
namespace {

double
sphere(const std::vector<double> &x)
{
    double s = 0.0;
    for (double v : x)
        s += v * v;
    return s;
}

double
rosenbrock(const std::vector<double> &x)
{
    double s = 0.0;
    for (std::size_t i = 0; i + 1 < x.size(); ++i) {
        double a = x[i + 1] - x[i] * x[i];
        double b = 1.0 - x[i];
        s += 100.0 * a * a + b * b;
    }
    return s;
}

double
shiftedQuadratic(const std::vector<double> &x)
{
    double s = 0.0;
    std::vector<double> target{1.5, -0.7};
    for (std::size_t i = 0; i < x.size(); ++i) {
        double d = x[i] - target[i];
        s += (1.0 + static_cast<double>(i)) * d * d;
    }
    return s;
}

TEST(CobylaLite, SolvesSphere)
{
    OptOptions opts;
    opts.maxEvaluations = 400;
    CobylaLite cob(opts);
    auto res = cob.minimize(sphere, {2.0, -1.5});
    EXPECT_LT(res.value, 1e-3);
}

TEST(CobylaLite, SolvesShiftedQuadratic)
{
    OptOptions opts;
    opts.maxEvaluations = 400;
    CobylaLite cob(opts);
    auto res = cob.minimize(shiftedQuadratic, {0.0, 0.0});
    EXPECT_NEAR(res.x[0], 1.5, 0.05);
    EXPECT_NEAR(res.x[1], -0.7, 0.05);
}

TEST(CobylaLite, RespectsEvaluationBudget)
{
    OptOptions opts;
    opts.maxEvaluations = 50;
    CobylaLite cob(opts);
    auto res = cob.minimize(sphere, {1.0, 1.0, 1.0});
    EXPECT_LE(res.evaluations, opts.maxEvaluations + 4);
    EXPECT_EQ(res.trace.size(), static_cast<std::size_t>(res.evaluations));
}

TEST(CobylaLite, TraceIsMonotoneNonIncreasing)
{
    OptOptions opts;
    opts.maxEvaluations = 120;
    CobylaLite cob(opts);
    auto res = cob.minimize(rosenbrock, {0.5, -0.5});
    for (std::size_t i = 1; i < res.trace.size(); ++i)
        EXPECT_LE(res.trace[i], res.trace[i - 1] + 1e-15);
}

TEST(MultiRestart, KeepsAllRunsAndFindsBest)
{
    OptOptions opts;
    opts.maxEvaluations = 80;
    CobylaLite cob(opts);
    Rng rng(4);
    auto runs = multiRestart(
        cob, shiftedQuadratic, 6,
        [](Rng &r) {
            return std::vector<double>{r.uniform(-3, 3), r.uniform(-3, 3)};
        },
        rng);
    EXPECT_EQ(runs.size(), 6u);
    std::size_t best = bestRun(runs);
    for (const auto &r : runs)
        EXPECT_LE(runs[best].value, r.value);
    EXPECT_LT(runs[best].value, 0.05);
}

TEST(GridSearchP1, FindsSinusoidMinimum)
{
    // f = -sin(gamma) * sin(4 beta): grid should land near
    // gamma = pi/2, beta = pi/8 (the single-edge QAOA optimum).
    auto res = gridSearchP1(
        [](double g, double b) { return -std::sin(g) * std::sin(4 * b); },
        30);
    EXPECT_EQ(res.evaluations, 900);
    EXPECT_NEAR(res.bestX[0], M_PI / 2.0, 0.25);
    EXPECT_NEAR(res.bestX[1], M_PI / 8.0, 0.2);
    EXPECT_NEAR(res.bestValue, -1.0, 0.05);
}

TEST(RandomSearch, ExploresHigherDepth)
{
    Rng rng(5);
    auto res = randomSearch(
        [](const std::vector<double> &x) { return sphere(x); }, 2, 200,
        rng);
    EXPECT_EQ(res.evaluations, 200);
    EXPECT_EQ(res.bestX.size(), 4u);
    EXPECT_LT(res.bestValue, sphere({M_PI, M_PI, M_PI / 2, M_PI / 2}));
}

TEST(OptimizerNames, AreStable)
{
    EXPECT_EQ(CobylaLite().name(), "cobyla-lite");
}

} // namespace
} // namespace redqaoa
