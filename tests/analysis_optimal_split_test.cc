/**
 * @file
 * Tests for the optimal work-split solver, including a property
 * check that no random split beats the solved optimum.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/advisor.h"
#include "analysis/optimal_split.h"
#include "soc/catalog.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gables {
namespace {

TEST(OptimalSplit, SingleIpGetsEverything)
{
    SocSpec soc("one", 10e9, 20e9, {IpSpec{"CPU", 1.0, 8e9}});
    OptimalSplit r = OptimalSplitSolver(soc, {4.0}).solve();
    ASSERT_EQ(r.fractions.size(), 1u);
    EXPECT_DOUBLE_EQ(r.fractions[0], 1.0);
    EXPECT_DOUBLE_EQ(r.attainable, 10e9); // compute bound at I = 4
}

TEST(OptimalSplit, ComputeBoundCaseSharesByPeak)
{
    // Huge intensities: every IP is compute-bound, so the optimum
    // loads each IP in proportion to its peak and achieves the sum.
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    OptimalSplit r =
        OptimalSplitSolver(soc, {1e6, 1e6}).solve();
    EXPECT_NEAR(r.attainable, 240e9, 240e9 * 1e-6);
    EXPECT_NEAR(r.fractions[0], 40.0 / 240.0, 1e-6);
    EXPECT_NEAR(r.fractions[1], 200.0 / 240.0, 1e-6);
}

TEST(OptimalSplit, SolverResultMatchesModelEvaluation)
{
    SocSpec soc = SocCatalog::snapdragon835();
    OptimalSplit r =
        OptimalSplitSolver(soc, {4.0, 16.0, 1.0}).solve();
    double model = GablesModel::evaluate(soc, r.usecase).attainable;
    EXPECT_NEAR(r.attainable, model, model * 1e-12);
}

TEST(OptimalSplit, BeatsPureCpuAndPureGpuWhenBalancedHelps)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    OptimalSplit r = OptimalSplitSolver(soc, {8.0, 8.0}).solve();
    double cpu_only =
        GablesModel::evaluate(soc, Usecase::twoIp("c", 0.0, 8.0, 8.0))
            .attainable;
    double gpu_only =
        GablesModel::evaluate(soc, Usecase::twoIp("g", 1.0, 8.0, 8.0))
            .attainable;
    EXPECT_GE(r.attainable, cpu_only);
    EXPECT_GE(r.attainable, gpu_only);
    // The paper's balanced point: f = 0.75 achieving 160 Gops/s.
    EXPECT_NEAR(r.attainable, 160e9, 160e9 * 1e-9);
    EXPECT_NEAR(r.fractions[1], 0.75, 1e-6);
}

TEST(OptimalSplit, NoRandomSplitBeatsOptimum)
{
    Rng rng(4242);
    SocSpec soc = SocCatalog::snapdragon835();
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> intensities = {
            rng.logUniform(0.1, 64.0), rng.logUniform(0.1, 64.0),
            rng.logUniform(0.1, 64.0)};
        OptimalSplit best =
            OptimalSplitSolver(soc, intensities).solve();
        for (int probe = 0; probe < 50; ++probe) {
            std::vector<double> f = rng.simplex(3);
            Usecase u("probe",
                      {IpWork{f[0], intensities[0]},
                       IpWork{f[1], intensities[1]},
                       IpWork{f[2], intensities[2]}});
            double perf = GablesModel::evaluate(soc, u).attainable;
            EXPECT_LE(perf, best.attainable * (1.0 + 1e-9))
                << "trial " << trial << " probe " << probe;
        }
    }
}

TEST(OptimalSplit, MemoryConstrainedPrefersHighIntensityIps)
{
    // Two identical IPs except intensity of the work differs; with
    // memory the binding resource, the high-intensity IP must carry
    // more work.
    SocSpec soc("mem", 100e9, 2e9,
                {IpSpec{"A", 1.0, 100e9}, IpSpec{"B", 1.0, 100e9}});
    OptimalSplit r = OptimalSplitSolver(soc, {8.0, 0.5}).solve();
    EXPECT_GT(r.fractions[0], r.fractions[1]);
}

TEST(OptimalSplit, InfiniteIntensityWorkIsFree)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    SocSpec soc = SocCatalog::paperTwoIp();
    OptimalSplit r = OptimalSplitSolver(soc, {inf, inf}).solve();
    // No memory traffic at all: aggregate compute 240 Gops/s.
    EXPECT_NEAR(r.attainable, 240e9, 240e9 * 1e-9);
}

TEST(OptimalSplit, PlaceableWorkScalesLinearly)
{
    SocSpec soc = SocCatalog::snapdragon835();
    OptimalSplitSolver solver(soc, {4.0, 4.0, 4.0});
    double w1 = solver.placeableWork(1.0);
    double w2 = solver.placeableWork(2.0);
    EXPECT_NEAR(w2, 2.0 * w1, w1 * 1e-9);
}

TEST(OptimalSplit, SpentByteBudgetStopsTheFill)
{
    // On this design the greedy fill's byte budget rounds to about
    // -2.2e-19 after IP[2]; IP[1] must then get no work instead of a
    // negative fraction that Usecase rejects.
    SocSpec soc("rounding", 24683258831.514774, 37682766978.564636,
                {IpSpec{"IP0", 1.0, 1045928716.5256444},
                 IpSpec{"IP1", 5.6656804077768328, 34435322790.044731},
                 IpSpec{"IP2", 26.53925047051797, 7777298401.2255363},
                 IpSpec{"IP3", 15.071257742938997,
                        36779480864.558899}});
    std::vector<double> intensities = {
        70.231649315171367, 0.43851963985861669, 4.9598842986810636,
        6.9475045669684965};
    OptimalSplit r = OptimalSplitSolver(soc, intensities).solve();
    double sum = 0.0;
    for (double f : r.fractions) {
        EXPECT_GE(f, 0.0);
        EXPECT_LE(f, 1.0);
        sum += f;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_EQ(r.fractions[1], 0.0);
    double model = GablesModel::evaluate(soc, r.usecase).attainable;
    EXPECT_NEAR(r.attainable, model, model * 1e-12);

    // The advisor's re-split move runs the same solver.
    std::vector<IpWork> work;
    for (double in : intensities)
        work.push_back(IpWork{0.25, in});
    EXPECT_FALSE(
        Advisor::advise(soc, Usecase("even", std::move(work))).empty());
}

TEST(OptimalSplit, InvalidInputsRejected)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    EXPECT_THROW(OptimalSplitSolver(soc, {1.0}), FatalError);
    EXPECT_THROW(OptimalSplitSolver(soc, {1.0, 0.0}), FatalError);
}

} // namespace
} // namespace gables
