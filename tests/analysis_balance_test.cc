/**
 * @file
 * Unit tests for the balanced-design solvers against the paper's
 * Figure 6d: the canonical balanced two-IP design.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/balance.h"
#include "soc/catalog.h"
#include "util/logging.h"

namespace gables {
namespace {

TEST(Balance, Figure6dIsPerfectlyBalanced)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    BalanceReport r = Balance::report(soc, u);
    EXPECT_DOUBLE_EQ(r.attainable, 160e9);
    EXPECT_NEAR(r.maxSlack, 0.0, 1e-12);
    EXPECT_NEAR(r.ipSlack[0], 0.0, 1e-12);
    EXPECT_NEAR(r.ipSlack[1], 0.0, 1e-12);
    EXPECT_NEAR(r.memorySlack, 0.0, 1e-12);
}

TEST(Balance, Figure6cHasSlack)
{
    // Bpeak = 30 with I1 = 0.1: IP[0] is vastly over-provisioned
    // (bound 160 vs attainable 2).
    SocSpec soc = SocCatalog::paperTwoIp().with(Param::bpeak(), 30e9);
    Usecase u = Usecase::twoIp("6c", 0.75, 8.0, 0.1);
    BalanceReport r = Balance::report(soc, u);
    EXPECT_DOUBLE_EQ(r.attainable, 2e9);
    EXPECT_NEAR(r.ipSlack[0], 160.0 / 2.0 - 1.0, 1e-9);
    EXPECT_NEAR(r.ipSlack[1], 0.0, 1e-12);
    EXPECT_GT(r.memorySlack, 0.9); // 3.98/2 - 1
}

TEST(Balance, IdleIpHasInfiniteSlack)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6a", 0.0, 8.0, 0.1);
    BalanceReport r = Balance::report(soc, u);
    EXPECT_TRUE(std::isinf(r.ipSlack[1]));
}

TEST(Balance, SufficientBpeakReproducesFigure6d)
{
    // The paper reduces Bpeak from 30 to "a sufficient 20 GB/s".
    SocSpec soc = SocCatalog::paperTwoIp().with(Param::bpeak(), 30e9);
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    EXPECT_NEAR(Balance::sufficientBpeak(soc, u), 20e9, 1e3);
}

TEST(Balance, SufficientBpeakDoesNotChangePerformance)
{
    SocSpec soc = SocCatalog::snapdragon835();
    Usecase u("u", {IpWork{0.3, 4.0}, IpWork{0.6, 2.0},
                    IpWork{0.1, 1.0}});
    double sufficient = Balance::sufficientBpeak(soc, u);
    double before = GablesModel::evaluate(soc, u).attainable;
    double after =
        GablesModel::evaluate(soc.with(Param::bpeak(), sufficient), u)
            .attainable;
    EXPECT_NEAR(after, before, before * 1e-12);
    // And any less does hurt.
    double less = GablesModel::evaluate(
                      soc.with(Param::bpeak(), sufficient * 0.9), u)
                      .attainable;
    EXPECT_LT(less, before);
}

TEST(Balance, SufficientBpeakZeroForPureCompute)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    constexpr double inf = std::numeric_limits<double>::infinity();
    Usecase u("compute", {IpWork{1.0, inf}, IpWork{0.0, 1.0}});
    EXPECT_DOUBLE_EQ(Balance::sufficientBpeak(soc, u), 0.0);
}

TEST(Balance, SufficientIpBandwidth)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    // IP[1] moves 0.09375 B/op; binding time elsewhere is 1/160e9.
    double b1 = Balance::sufficientIpBandwidth(soc, u, 1);
    EXPECT_NEAR(b1, 0.09375 * 160e9, 1e3); // = 15 GB/s, exactly B1
    // Verify: shrinking below reduces performance, equal keeps it.
    double before = GablesModel::evaluate(soc, u).attainable;
    EXPECT_NEAR(GablesModel::evaluate(soc.with(Param::ipBandwidth(1), b1), u)
                    .attainable,
                before, before * 1e-9);
    EXPECT_LT(GablesModel::evaluate(
                  soc.with(Param::ipBandwidth(1), b1 * 0.8), u)
                  .attainable,
              before);
}

TEST(Balance, SufficientIpBandwidthZeroForNoTraffic)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.0, 8.0, 1.0);
    EXPECT_DOUBLE_EQ(Balance::sufficientIpBandwidth(soc, u, 1), 0.0);
}

} // namespace
} // namespace gables
