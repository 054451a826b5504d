/**
 * @file
 * Unit tests for SocSpec and Usecase validation and accessors.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/soc_spec.h"
#include "core/usecase.h"
#include "util/logging.h"

namespace gables {
namespace {

SocSpec
paperSoc()
{
    return SocSpec("paper", 40e9, 10e9,
                   {IpSpec{"CPU", 1.0, 6e9}, IpSpec{"GPU", 5.0, 15e9}});
}

TEST(SocSpec, AccessorsAndDerived)
{
    SocSpec soc = paperSoc();
    EXPECT_EQ(soc.numIps(), 2u);
    EXPECT_DOUBLE_EQ(soc.ppeak(), 40e9);
    EXPECT_DOUBLE_EQ(soc.bpeak(), 10e9);
    EXPECT_DOUBLE_EQ(soc.ipPeakPerf(0), 40e9);
    EXPECT_DOUBLE_EQ(soc.ipPeakPerf(1), 200e9);
    EXPECT_EQ(soc.ip(1).name, "GPU");
}

TEST(SocSpec, IpIndexByName)
{
    SocSpec soc = paperSoc();
    EXPECT_EQ(soc.ipIndex("CPU"), 0u);
    EXPECT_EQ(soc.ipIndex("GPU"), 1u);
    EXPECT_THROW(soc.ipIndex("DSP"), FatalError);
}

TEST(SocSpec, IpOutOfRange)
{
    SocSpec soc = paperSoc();
    EXPECT_THROW(soc.ip(2), FatalError);
    EXPECT_THROW(soc.ipPeakPerf(99), FatalError);
}

TEST(SocSpec, A0MustBeOne)
{
    EXPECT_THROW(SocSpec("bad", 40e9, 10e9,
                         {IpSpec{"CPU", 2.0, 6e9}}),
                 FatalError);
}

TEST(SocSpec, RejectsNonPositiveRates)
{
    EXPECT_THROW(SocSpec("bad", 0.0, 10e9, {IpSpec{"CPU", 1.0, 6e9}}),
                 FatalError);
    EXPECT_THROW(SocSpec("bad", 40e9, 0.0, {IpSpec{"CPU", 1.0, 6e9}}),
                 FatalError);
    EXPECT_THROW(SocSpec("bad", 40e9, 10e9, {IpSpec{"CPU", 1.0, 0.0}}),
                 FatalError);
    EXPECT_THROW(SocSpec("bad", 40e9, 10e9,
                         {IpSpec{"CPU", 1.0, 6e9},
                          IpSpec{"GPU", -5.0, 15e9}}),
                 FatalError);
}

TEST(SocSpec, RejectsEmptyIpList)
{
    EXPECT_THROW(SocSpec("bad", 40e9, 10e9, {}), FatalError);
}

TEST(SocSpec, WithBpeakCopies)
{
    SocSpec soc = paperSoc();
    SocSpec modified = soc.with(Param::bpeak(), 30e9);
    EXPECT_DOUBLE_EQ(modified.bpeak(), 30e9);
    EXPECT_DOUBLE_EQ(soc.bpeak(), 10e9); // original untouched
}

TEST(SocSpec, WithIpBandwidthAndAcceleration)
{
    SocSpec soc = paperSoc();
    SocSpec m1 = soc.with(Param::ipBandwidth(1), 99e9);
    EXPECT_DOUBLE_EQ(m1.ip(1).bandwidth, 99e9);
    SocSpec m2 = soc.with(Param::acceleration(1), 7.0);
    EXPECT_DOUBLE_EQ(m2.ip(1).acceleration, 7.0);
    EXPECT_THROW(soc.with(Param::ipBandwidth(9), 1e9), FatalError);
}

TEST(SocSpec, IpRooflineClampsToBpeak)
{
    SocSpec soc = paperSoc();
    // GPU link is 15 GB/s but the chip only has 10 GB/s to DRAM.
    Roofline gpu = soc.ipRoofline(1);
    EXPECT_DOUBLE_EQ(gpu.peakBw(), 10e9);
    EXPECT_DOUBLE_EQ(gpu.peakPerf(), 200e9);
    // CPU link (6) is below Bpeak (10), so it stays.
    EXPECT_DOUBLE_EQ(soc.ipRoofline(0).peakBw(), 6e9);
}

TEST(Usecase, TwoIpConvenience)
{
    Usecase u = Usecase::twoIp("mix", 0.75, 8.0, 0.1);
    EXPECT_EQ(u.numIps(), 2u);
    EXPECT_DOUBLE_EQ(u.fraction(0), 0.25);
    EXPECT_DOUBLE_EQ(u.fraction(1), 0.75);
    EXPECT_DOUBLE_EQ(u.intensity(0), 8.0);
    EXPECT_DOUBLE_EQ(u.intensity(1), 0.1);
}

TEST(Usecase, FractionsMustSumToOne)
{
    EXPECT_THROW(Usecase("bad", {IpWork{0.5, 1.0}, IpWork{0.4, 1.0}}),
                 FatalError);
    EXPECT_THROW(Usecase("bad", {IpWork{0.6, 1.0}, IpWork{0.6, 1.0}}),
                 FatalError);
}

TEST(Usecase, NegativeFractionRejected)
{
    EXPECT_THROW(Usecase("bad", {IpWork{-0.1, 1.0}, IpWork{1.1, 1.0}}),
                 FatalError);
}

TEST(Usecase, IntensityRequiredOnlyWhereWorked)
{
    // Zero-fraction entries may carry any intensity.
    EXPECT_NO_THROW(Usecase("ok", {IpWork{1.0, 2.0}, IpWork{0.0, 0.0}}));
    EXPECT_THROW(Usecase("bad", {IpWork{0.5, 0.0}, IpWork{0.5, 1.0}}),
                 FatalError);
}

TEST(Usecase, EmptyRejected)
{
    EXPECT_THROW(Usecase("bad", {}), FatalError);
}

TEST(Usecase, AverageIntensityPaperValue)
{
    // Appendix 6b: Iavg = 1/[(0.25/8) + (0.75/0.1)] = 0.13278.
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    EXPECT_NEAR(u.averageIntensity(), 0.13278, 5e-6);
}

TEST(Usecase, AverageIntensitySkipsIdleIps)
{
    Usecase u("one-sided", {IpWork{1.0, 8.0}, IpWork{0.0, 123.0}});
    EXPECT_DOUBLE_EQ(u.averageIntensity(), 8.0);
}

TEST(Usecase, InfiniteIntensityMeansNoTraffic)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    Usecase u("compute-only", {IpWork{0.5, inf}, IpWork{0.5, 4.0}});
    // Only the second IP moves data: bytes/op = 0.5/4.
    EXPECT_DOUBLE_EQ(u.bytesPerOp(), 0.125);
    EXPECT_DOUBLE_EQ(u.averageIntensity(), 8.0);

    Usecase all_inf("pure-compute", {IpWork{1.0, inf}});
    EXPECT_DOUBLE_EQ(all_inf.bytesPerOp(), 0.0);
    EXPECT_TRUE(std::isinf(all_inf.averageIntensity()));
}

TEST(Usecase, WithWorkCopies)
{
    Usecase u = Usecase::twoIp("mix", 0.75, 8.0, 0.1);
    Usecase m = u.withWork(1, IpWork{0.75, 8.0});
    EXPECT_DOUBLE_EQ(m.intensity(1), 8.0);
    EXPECT_DOUBLE_EQ(u.intensity(1), 0.1);
    // Replacement must keep the sum valid.
    EXPECT_THROW(u.withWork(1, IpWork{0.9, 8.0}), FatalError);
}

} // namespace
} // namespace gables
