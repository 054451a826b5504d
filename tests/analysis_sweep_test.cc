/**
 * @file
 * Unit tests for the sweep drivers.
 */

#include <gtest/gtest.h>

#include "analysis/sweep.h"
#include "core/evaluator.h"
#include "core/gables.h"
#include "soc/catalog.h"
#include "util/logging.h"

namespace gables {
namespace {

std::vector<double>
eighths()
{
    std::vector<double> f;
    for (int i = 0; i <= 8; ++i)
        f.push_back(i / 8.0);
    return f;
}

TEST(MixingSweep, NormalizedStartsAtOne)
{
    SocSpec soc = SocCatalog::snapdragon835();
    Series s = Sweep::mixing(soc, 1.0, 1.0, eighths());
    ASSERT_EQ(s.x.size(), 9u);
    EXPECT_DOUBLE_EQ(s.x.front(), 0.0);
    EXPECT_DOUBLE_EQ(s.y.front(), 1.0);
}

TEST(MixingSweep, HighIntensityApproachesAcceleration)
{
    // At I = 1024 everything is compute-bound; all work on the GPU
    // gives the full A1 = 46.6x speedup in the model.
    SocSpec soc = SocCatalog::snapdragon835();
    Series s = Sweep::mixing(soc, 1024.0, 1024.0, {0.0, 1.0});
    EXPECT_NEAR(s.y.back(), soc.ip(1).acceleration, 1e-9);
}

TEST(MixingSweep, UnnormalizedReturnsOpsRates)
{
    SocSpec soc = SocCatalog::snapdragon835();
    Series s = Sweep::mixing(soc, 1024.0, 1024.0, {0.0}, false);
    EXPECT_DOUBLE_EQ(s.y.front(), 7.5e9);
}

TEST(MixingSweep, RejectsBadInputs)
{
    SocSpec one("one", 1e9, 1e9, {IpSpec{"CPU", 1.0, 1e9}});
    EXPECT_THROW(Sweep::mixing(one, 1.0, 1.0, {0.0}), FatalError);
    SocSpec soc = SocCatalog::snapdragon835();
    EXPECT_THROW(Sweep::mixing(soc, 1.0, 1.0, {1.5}), FatalError);
}

TEST(BpeakSweep, SaturatesOnceSufficient)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    Series s = Sweep::param(soc, u, Param::bpeak(),
                            {5e9, 10e9, 20e9, 40e9, 80e9});
    // Monotone nondecreasing...
    for (size_t i = 1; i < s.y.size(); ++i)
        EXPECT_GE(s.y[i], s.y[i - 1]);
    // ...and flat beyond the sufficient 20 GB/s (Figure 6d).
    EXPECT_DOUBLE_EQ(s.y[2], 160e9);
    EXPECT_DOUBLE_EQ(s.y[4], 160e9);
}

TEST(IntensitySweep, ReproducesFigure6dMove)
{
    // Raising I1 from 0.1 to 8 on the 30 GB/s design lifts
    // performance from 2 to 160 Gops/s? No: at Bpeak = 30 the memory
    // bound at I1 = 8 allows min(160, 160, 30*8=240) = 160.
    SocSpec soc = SocCatalog::paperTwoIp().with(Param::bpeak(), 30e9);
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    Series s = Sweep::param(soc, u, Param::intensity(1), {0.1, 8.0});
    EXPECT_DOUBLE_EQ(s.y[0], 2e9);
    EXPECT_DOUBLE_EQ(s.y[1], 160e9);
}

TEST(AccelerationSweep, SaturatesAtOtherBounds)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    Series s = Sweep::param(soc, u, Param::acceleration(1),
                            {1.0, 5.0, 50.0, 500.0});
    for (size_t i = 1; i < s.y.size(); ++i)
        EXPECT_GE(s.y[i], s.y[i - 1]);
    // Beyond A1 = 5 the link (B1 * I1 = 120/0.75 = 160) binds: more
    // acceleration is the over-design the paper warns about.
    EXPECT_DOUBLE_EQ(s.y[1], 160e9);
    EXPECT_DOUBLE_EQ(s.y[3], 160e9);
}

TEST(AccelerationSweep, RefusesA0)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    EXPECT_THROW(Sweep::param(soc, u, Param::acceleration(0), {2.0}),
                 FatalError);
}

TEST(IpBandwidthSweep, Monotone)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    Series s = Sweep::param(soc, u, Param::ipBandwidth(1),
                            {1e9, 5e9, 15e9, 50e9});
    for (size_t i = 1; i < s.y.size(); ++i)
        EXPECT_GE(s.y[i], s.y[i - 1]);
}

// The evaluator-backed drivers must reproduce a direct legacy loop
// (one GablesModel::evaluate() per rebuilt spec) bit-for-bit, both
// serial and parallel.
TEST(SweepBitIdentity, DriversMatchLegacyLoop)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    std::vector<double> bpeaks = {5e9, 10e9, 20e9, 40e9, 80e9};
    std::vector<double> accels = {1.0, 2.5, 5.0, 50.0};
    std::vector<double> bands = {1e9, 5e9, 15e9, 50e9};
    std::vector<double> intensities = {0.05, 0.1, 1.0, 8.0, 64.0};

    for (int jobs : {1, 0}) {
        Series s = Sweep::param(soc, u, Param::bpeak(), bpeaks, jobs);
        for (size_t i = 0; i < bpeaks.size(); ++i)
            EXPECT_EQ(s.y[i], GablesModel::evaluate(
                                  soc.with(Param::bpeak(), bpeaks[i]), u)
                                  .attainable)
                << "bpeak jobs " << jobs << " i " << i;

        s = Sweep::param(soc, u, Param::acceleration(1), accels, jobs);
        for (size_t i = 0; i < accels.size(); ++i)
            EXPECT_EQ(
                s.y[i],
                GablesModel::evaluate(
                    soc.with(Param::acceleration(1), accels[i]), u)
                    .attainable)
                << "accel jobs " << jobs << " i " << i;

        s = Sweep::param(soc, u, Param::ipBandwidth(1), bands, jobs);
        for (size_t i = 0; i < bands.size(); ++i)
            EXPECT_EQ(
                s.y[i],
                GablesModel::evaluate(
                    soc.with(Param::ipBandwidth(1), bands[i]), u)
                    .attainable)
                << "band jobs " << jobs << " i " << i;

        s = Sweep::param(soc, u, Param::intensity(1), intensities, jobs);
        for (size_t i = 0; i < intensities.size(); ++i)
            EXPECT_EQ(
                s.y[i],
                GablesModel::evaluate(
                    soc, u.withWork(1, IpWork{u.fraction(1),
                                              intensities[i]}))
                    .attainable)
                << "intensity jobs " << jobs << " i " << i;
    }
}

TEST(SweepBitIdentity, MixingMatchesLegacyLoop)
{
    SocSpec soc = SocCatalog::snapdragon835();
    std::vector<double> fractions = eighths();
    auto usecase_for = [&](double f) {
        std::vector<IpWork> work(soc.numIps());
        work[0] = IpWork{1.0 - f, 4.0};
        work[1] = IpWork{f, 32.0};
        for (size_t i = 2; i < work.size(); ++i)
            work[i] = IpWork{0.0, 1.0};
        return Usecase("mixing", std::move(work));
    };
    for (int jobs : {1, 0}) {
        Series s = Sweep::mixing(soc, 4.0, 32.0, fractions, true, jobs);
        double base =
            GablesModel::evaluate(soc, usecase_for(0.0)).attainable;
        for (size_t i = 0; i < fractions.size(); ++i)
            EXPECT_EQ(s.y[i],
                      GablesModel::evaluate(soc, usecase_for(fractions[i]))
                              .attainable /
                          base)
                << "jobs " << jobs << " i " << i;
    }
}

// The drivers evaluate kGridWidth points per pack; a per-point loop
// on a single-point pack must reproduce every lane, partial-pack
// tails included.
TEST(SweepBitIdentity, GridPacksMatchSinglePointPacks)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    // 11 points: one full pack plus a 3-lane tail at kGridWidth = 8.
    std::vector<double> intensities;
    for (int i = 0; i < 11; ++i)
        intensities.push_back(0.05 * (i + 1) * (i + 1));

    Series grid = Sweep::param(soc, u, Param::intensity(1), intensities);
    GablesPack<1> single(soc, u);
    ASSERT_EQ(grid.y.size(), intensities.size());
    for (size_t i = 0; i < intensities.size(); ++i) {
        single.set(0, Param::intensity(1), intensities[i]);
        single.run();
        EXPECT_EQ(grid.y[i], single.attainable(0)) << "i " << i;
    }

    std::vector<double> fractions = eighths();
    Series mix = Sweep::mixing(soc, 4.0, 32.0, fractions);
    GablesPack<1> point(soc, Usecase::twoIp("m", 0.0, 4.0, 32.0));
    point.run();
    const double base = point.attainable(0);
    ASSERT_EQ(mix.y.size(), fractions.size());
    for (size_t i = 0; i < fractions.size(); ++i) {
        point.set(0, Param::fraction(0), 1.0 - fractions[i]);
        point.set(0, Param::fraction(1), fractions[i]);
        point.run();
        EXPECT_EQ(mix.y[i], point.attainable(0) / base) << "i " << i;
    }
}

TEST(CustomSweep, AppliesCallback)
{
    Series s = Sweep::custom("squares", {1.0, 2.0, 3.0},
                             [](double x) { return x * x; });
    EXPECT_EQ(s.label, "squares");
    EXPECT_DOUBLE_EQ(s.y[2], 9.0);
}

} // namespace
} // namespace gables
