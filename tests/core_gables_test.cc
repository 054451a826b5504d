/**
 * @file
 * Unit tests for the base Gables model beyond the appendix anchors:
 * edge cases, bottleneck attribution, N-IP behaviour, and the scaled
 * roofline helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/gables.h"
#include "soc/catalog.h"
#include "util/logging.h"

namespace gables {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

SocSpec
threeIp()
{
    return SocSpec("three", 10e9, 20e9,
                   {IpSpec{"CPU", 1.0, 8e9}, IpSpec{"GPU", 20.0, 25e9},
                    IpSpec{"DSP", 0.5, 5e9}});
}

TEST(Gables, MismatchedSizesRejected)
{
    SocSpec soc = threeIp();
    Usecase two = Usecase::twoIp("two", 0.5, 1.0, 1.0);
    EXPECT_THROW(GablesModel::evaluate(soc, two), FatalError);
}

TEST(Gables, SingleIpReducesToRoofline)
{
    SocSpec soc("one", 10e9, 20e9, {IpSpec{"CPU", 1.0, 8e9}});
    for (double i : {0.1, 0.5, 1.25, 10.0, 100.0}) {
        Usecase u("u", {IpWork{1.0, i}});
        double expected = std::min({8e9 * i, 10e9, 20e9 * i});
        EXPECT_DOUBLE_EQ(GablesModel::evaluate(soc, u).attainable,
                         expected)
            << "intensity " << i;
    }
}

TEST(Gables, AllWorkOnOneOfThree)
{
    SocSpec soc = threeIp();
    Usecase u("dsp-only", {IpWork{0.0, 1.0}, IpWork{0.0, 1.0},
                           IpWork{1.0, 100.0}});
    GablesResult r = GablesModel::evaluate(soc, u);
    // DSP peak = 0.5 * 10 = 5 Gops/s, compute bound at I = 100.
    EXPECT_DOUBLE_EQ(r.attainable, 5e9);
    EXPECT_EQ(r.bottleneckIp, 2);
    EXPECT_EQ(r.bottleneck, BottleneckKind::IpCompute);
}

TEST(Gables, IdleIpsContributeNothing)
{
    SocSpec soc = threeIp();
    Usecase active("a", {IpWork{0.5, 4.0}, IpWork{0.5, 4.0},
                         IpWork{0.0, 1.0}});
    SocSpec two("two", 10e9, 20e9,
                {IpSpec{"CPU", 1.0, 8e9}, IpSpec{"GPU", 20.0, 25e9}});
    Usecase same("a", {IpWork{0.5, 4.0}, IpWork{0.5, 4.0}});
    EXPECT_DOUBLE_EQ(GablesModel::evaluate(soc, active).attainable,
                     GablesModel::evaluate(two, same).attainable);
}

TEST(Gables, InfiniteIntensityIsComputeOnly)
{
    SocSpec soc = threeIp();
    Usecase u("compute", {IpWork{1.0, kInf}, IpWork{0.0, 1.0},
                          IpWork{0.0, 1.0}});
    GablesResult r = GablesModel::evaluate(soc, u);
    EXPECT_DOUBLE_EQ(r.attainable, 10e9);
    EXPECT_DOUBLE_EQ(r.totalDataBytes, 0.0);
    EXPECT_DOUBLE_EQ(r.memoryTime, 0.0);
    EXPECT_TRUE(std::isinf(r.memoryPerfBound));
}

TEST(Gables, IpBandwidthBottleneckAttribution)
{
    // Low intensity on a narrow link with plenty of chip bandwidth.
    SocSpec soc("narrow", 10e9, 100e9,
                {IpSpec{"CPU", 1.0, 1e9}});
    Usecase u("u", {IpWork{1.0, 0.1}});
    GablesResult r = GablesModel::evaluate(soc, u);
    // Link: 1e9 * 0.1 = 0.1 Gops/s binds (memory would allow 10).
    EXPECT_DOUBLE_EQ(r.attainable, 0.1e9);
    EXPECT_EQ(r.bottleneckIp, 0);
    EXPECT_EQ(r.bottleneck, BottleneckKind::IpBandwidth);
}

TEST(Gables, MemoryWinsTies)
{
    // Construct an exact tie between IP[0] compute and memory.
    // Ppeak = 10, I = 1, Bpeak = 10: both times are 0.1 ns/op.
    SocSpec soc("tie", 10e9, 10e9, {IpSpec{"CPU", 1.0, 100e9}});
    Usecase u("u", {IpWork{1.0, 1.0}});
    GablesResult r = GablesModel::evaluate(soc, u);
    EXPECT_DOUBLE_EQ(r.attainable, 10e9);
    EXPECT_EQ(r.bottleneckIp, -1);
    EXPECT_EQ(r.bottleneck, BottleneckKind::Memory);
}

TEST(Gables, TimingDetailFieldsConsistent)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    GablesResult r = GablesModel::evaluate(soc, u);
    for (size_t i = 0; i < r.ips.size(); ++i) {
        const IpTiming &t = r.ips[i];
        EXPECT_DOUBLE_EQ(t.time, std::max(t.computeTime,
                                          t.transferTime));
        if (u.fraction(i) > 0.0) {
            EXPECT_NEAR(t.perfBound * t.time, 1.0, 1e-12);
            EXPECT_DOUBLE_EQ(t.dataBytes,
                             u.fraction(i) / u.intensity(i));
        }
    }
    EXPECT_DOUBLE_EQ(r.totalDataBytes,
                     r.ips[0].dataBytes + r.ips[1].dataBytes);
    EXPECT_DOUBLE_EQ(r.memoryTime, r.totalDataBytes / soc.bpeak());
}

TEST(Gables, BottleneckLabels)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    GablesResult r = GablesModel::evaluate(
        soc, Usecase::twoIp("6a", 0.0, 8.0, 0.1));
    EXPECT_EQ(r.bottleneckLabel(soc), "CPU compute (Ai*Ppeak)");
    r = GablesModel::evaluate(soc,
                              Usecase::twoIp("6b", 0.75, 8.0, 0.1));
    EXPECT_EQ(r.bottleneckLabel(soc), "memory interface (Bpeak)");
    r = GablesModel::evaluate(soc.with(Param::bpeak(), 30e9),
                              Usecase::twoIp("6c", 0.75, 8.0, 0.1));
    EXPECT_EQ(r.bottleneckLabel(soc), "GPU link bandwidth (Bi)");
}

TEST(Gables, ToStringCoversKinds)
{
    EXPECT_EQ(toString(BottleneckKind::IpCompute), "IP compute");
    EXPECT_EQ(toString(BottleneckKind::IpBandwidth), "IP bandwidth");
    EXPECT_EQ(toString(BottleneckKind::Memory), "memory interface");
    EXPECT_EQ(toString(BottleneckKind::Bus), "bus");
}

TEST(Gables, BottleneckLabelFallsBackToIndexForUnnamedIp)
{
    // An IP with an empty name is labeled by its index.
    SocSpec soc("anon", 10e9, 100e9,
                {IpSpec{"", 1.0, 100e9}, IpSpec{"", 2.0, 1e9}});
    Usecase u = Usecase::twoIp("u", 1.0, 8.0, 0.1);
    GablesResult r = GablesModel::evaluate(soc, u);
    EXPECT_EQ(r.bottleneck, BottleneckKind::IpBandwidth);
    EXPECT_EQ(r.bottleneckLabel(soc), "IP[1] link bandwidth (Bi)");

    Usecase c = Usecase::twoIp("c", 0.0, kInf, 1.0);
    r = GablesModel::evaluate(soc, c);
    EXPECT_EQ(r.bottleneckLabel(soc), "IP[0] compute (Ai*Ppeak)");
}

// Tie-break contract: memory first, then the lowest IP index. The
// three tests below share exact power-of-two parameters so every
// compared time is the same double, making the ties exact rather
// than approximate.
TEST(Gables, ThreeWayTieGoesToMemory)
{
    // Per IP: C = 0.5/1 = 0.5, D/B = 0.5/1 = 0.5; memory: 1/2 = 0.5.
    SocSpec soc("tie3", 1.0, 2.0,
                {IpSpec{"a", 1.0, 1.0}, IpSpec{"b", 1.0, 1.0}});
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    GablesResult r = GablesModel::evaluate(soc, u);
    EXPECT_DOUBLE_EQ(r.memoryTime, 0.5);
    EXPECT_DOUBLE_EQ(r.ips[0].time, 0.5);
    EXPECT_DOUBLE_EQ(r.ips[1].time, 0.5);
    EXPECT_EQ(r.bottleneckIp, -1);
    EXPECT_EQ(r.bottleneck, BottleneckKind::Memory);
    EXPECT_EQ(r.bottleneckLabel(soc), "memory interface (Bpeak)");
}

TEST(Gables, IpTieGoesToLowestIndex)
{
    // Same IPs, Bpeak = 4: memory drops to 0.25, both IPs tie at 0.5
    // -> IP[0] is attributed; its compute and transfer times also
    // tie, and compute wins that inner tie.
    SocSpec soc("tie2", 1.0, 4.0,
                {IpSpec{"a", 1.0, 1.0}, IpSpec{"b", 1.0, 1.0}});
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    GablesResult r = GablesModel::evaluate(soc, u);
    EXPECT_DOUBLE_EQ(r.memoryTime, 0.25);
    EXPECT_EQ(r.bottleneckIp, 0);
    EXPECT_EQ(r.bottleneck, BottleneckKind::IpCompute);
    EXPECT_EQ(r.bottleneckLabel(soc), "a compute (Ai*Ppeak)");
}

TEST(Gables, NarrowLinkBreaksIpTieTowardBandwidth)
{
    // Halving IP[0]'s link doubles its transfer time (1.0 > 0.5):
    // now a single strict maximum, attributed as link bandwidth.
    SocSpec soc("narrow", 1.0, 4.0,
                {IpSpec{"a", 1.0, 0.5}, IpSpec{"b", 1.0, 1.0}});
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    GablesResult r = GablesModel::evaluate(soc, u);
    EXPECT_DOUBLE_EQ(r.ips[0].transferTime, 1.0);
    EXPECT_EQ(r.bottleneckIp, 0);
    EXPECT_EQ(r.bottleneck, BottleneckKind::IpBandwidth);
    EXPECT_EQ(r.bottleneckLabel(soc), "a link bandwidth (Bi)");
}

TEST(Gables, SingleActiveIpMatchesItsIsolatedRoofline)
{
    // With all work on one IP, evaluate() equals that IP's isolated
    // roofline (ipRoofline clamps the slant to min(Bi, Bpeak)) at
    // every intensity.
    SocSpec soc = threeIp();
    for (size_t ip = 0; ip < soc.numIps(); ++ip) {
        Roofline isolated = soc.ipRoofline(ip);
        for (double i : {0.05, 0.5, 2.0, 50.0}) {
            std::vector<IpWork> work(soc.numIps(), IpWork{0.0, 1.0});
            work[ip] = IpWork{1.0, i};
            Usecase u("solo", work);
            EXPECT_DOUBLE_EQ(GablesModel::evaluate(soc, u).attainable,
                             isolated.attainable(i))
                << "ip " << ip << " I " << i;
        }
    }
}

TEST(Gables, WorkSplitNeverBeatsIdealAggregate)
{
    // Sanity: attainable can never exceed the sum of all IP peaks.
    SocSpec soc = threeIp();
    double aggregate = 0.0;
    for (size_t i = 0; i < soc.numIps(); ++i)
        aggregate += soc.ipPeakPerf(i);
    Usecase u("u", {IpWork{0.2, kInf}, IpWork{0.6, kInf},
                    IpWork{0.2, kInf}});
    EXPECT_LE(GablesModel::evaluate(soc, u).attainable, aggregate);
}

} // namespace
} // namespace gables
