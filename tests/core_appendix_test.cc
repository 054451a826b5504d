/**
 * @file
 * Exact reproduction of the paper's appendix: the specific numbers
 * behind Figures 6a-6d. These are the library's ground-truth
 * anchors — every value here is printed in the paper.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/gables.h"
#include "soc/catalog.h"

namespace gables {
namespace {

TEST(Appendix, Figure6aAllWorkOnCpu)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6a", 0.0, 8.0, 0.1);
    GablesResult r = GablesModel::evaluate(soc, u);

    // 1/TIP[0] = MIN(6*8, 40)/1.0 = 40.
    EXPECT_DOUBLE_EQ(r.ips[0].perfBound, 40e9);
    // IP[1] is moot (f = 0): omitted from the bound.
    EXPECT_TRUE(std::isinf(r.ips[1].perfBound));
    // 1/Tmemory = 10 * 8 = 80 (Iavg = 8 since f = 0).
    EXPECT_DOUBLE_EQ(r.memoryPerfBound, 80e9);
    EXPECT_DOUBLE_EQ(r.averageIntensity, 8.0);
    // Pattainable = MIN(40, -, 80) = 40 Gops/s.
    EXPECT_DOUBLE_EQ(r.attainable, 40e9);
    EXPECT_EQ(r.bottleneckIp, 0);
    EXPECT_EQ(r.bottleneck, BottleneckKind::IpCompute);
}

TEST(Appendix, Figure6bOffloadDropsPerformance)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    GablesResult r = GablesModel::evaluate(soc, u);

    // 1/TIP[0] = MIN(6*8, 40)/0.25 = 160.
    EXPECT_DOUBLE_EQ(r.ips[0].perfBound, 160e9);
    // 1/TIP[1] = MIN(15*0.1, 5*40)/0.75 = 1.5/0.75 = 2.
    EXPECT_DOUBLE_EQ(r.ips[1].perfBound, 2e9);
    // Iavg = 1/[(0.25/8) + (0.75/0.1)] = 0.13278.
    EXPECT_NEAR(r.averageIntensity, 0.13278, 5e-6);
    // 1/Tmemory = 10 * 0.13278 = 1.3.
    EXPECT_NEAR(r.memoryPerfBound, 1.3278e9, 1e6);
    // Pattainable = MIN(160, 2, 1.3) = 1.3 Gops/s.
    EXPECT_NEAR(r.attainable, 1.3278e9, 1e6);
    EXPECT_EQ(r.bottleneckIp, -1);
    EXPECT_EQ(r.bottleneck, BottleneckKind::Memory);
}

TEST(Appendix, Figure6cMoreBandwidthBarelyHelps)
{
    SocSpec soc = SocCatalog::paperTwoIp().with(Param::bpeak(), 30e9);
    Usecase u = Usecase::twoIp("6c", 0.75, 8.0, 0.1);
    GablesResult r = GablesModel::evaluate(soc, u);

    // 1/Tmemory = 30 * 0.13278 = 3.98.
    EXPECT_NEAR(r.memoryPerfBound, 3.983e9, 2e6);
    // Pattainable = MIN(160, 2, 3.98) = 2.0 Gops/s: now IP[1]'s link
    // bandwidth with poor reuse binds.
    EXPECT_DOUBLE_EQ(r.attainable, 2e9);
    EXPECT_EQ(r.bottleneckIp, 1);
    EXPECT_EQ(r.bottleneck, BottleneckKind::IpBandwidth);
}

TEST(Appendix, Figure6dBalancedDesign)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced(); // Bpeak = 20 GB/s
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    GablesResult r = GablesModel::evaluate(soc, u);

    // 1/TIP[0] = MIN(6*8, 40)/0.25 = 160.
    EXPECT_DOUBLE_EQ(r.ips[0].perfBound, 160e9);
    // 1/TIP[1] = MIN(15*8, 5*40)/0.75 = 120/0.75 = 160.
    EXPECT_DOUBLE_EQ(r.ips[1].perfBound, 160e9);
    // 1/Tmemory = 20 * 8 = 160.
    EXPECT_DOUBLE_EQ(r.memoryPerfBound, 160e9);
    // All three rooflines equal at I = 8: a perfectly balanced design.
    EXPECT_DOUBLE_EQ(r.attainable, 160e9);
}

TEST(Appendix, Figure6SequenceIsTheStory)
{
    // The paper's narrative: 40 -> 1.3 -> 2.0 -> 160 Gops/s.
    SocSpec base = SocCatalog::paperTwoIp();
    double a = GablesModel::evaluate(
                   base, Usecase::twoIp("6a", 0.0, 8.0, 0.1))
                   .attainable;
    double b = GablesModel::evaluate(
                   base, Usecase::twoIp("6b", 0.75, 8.0, 0.1))
                   .attainable;
    double c = GablesModel::evaluate(
                   base.with(Param::bpeak(), 30e9),
                   Usecase::twoIp("6c", 0.75, 8.0, 0.1))
                   .attainable;
    double d = GablesModel::evaluate(
                   base.with(Param::bpeak(), 20e9),
                   Usecase::twoIp("6d", 0.75, 8.0, 8.0))
                   .attainable;
    EXPECT_DOUBLE_EQ(a, 40e9);
    EXPECT_NEAR(b, 1.3278e9, 1e6);
    EXPECT_DOUBLE_EQ(c, 2e9);
    EXPECT_DOUBLE_EQ(d, 160e9);
    // Naive offload hurts; a balanced redesign wins 4x over CPU-only.
    EXPECT_LT(b, a);
    EXPECT_LT(c, a);
    EXPECT_DOUBLE_EQ(d / a, 4.0);
}

TEST(Appendix, PerformanceFormMatchesAppendixToo)
{
    SocSpec base = SocCatalog::paperTwoIp();
    EXPECT_DOUBLE_EQ(GablesModel::attainablePerfForm(
                         base, Usecase::twoIp("6a", 0.0, 8.0, 0.1)),
                     40e9);
    EXPECT_NEAR(GablesModel::attainablePerfForm(
                    base, Usecase::twoIp("6b", 0.75, 8.0, 0.1)),
                1.3278e9, 1e6);
    EXPECT_DOUBLE_EQ(GablesModel::attainablePerfForm(
                         base.with(Param::bpeak(), 20e9),
                         Usecase::twoIp("6d", 0.75, 8.0, 8.0)),
                     160e9);
}

} // namespace
} // namespace gables
