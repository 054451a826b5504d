/**
 * @file
 * Unit tests for the mixing sweep.
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

// The driver evaluates kGridWidth points per pack; a per-point loop
// on a single-point pack must reproduce every lane, partial-pack
// tails included.
TEST(SweepBitIdentity, GridPacksMatchSinglePointPacks)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    // 9 points: one full pack plus a 1-lane tail at kGridWidth = 8.
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

} // namespace
} // namespace gables
