/**
 * @file
 * Unit and property tests for the three paper extensions (memory-
 * side memory and interconnect topology, alone and together through
 * GablesModel::evaluate(); serialized work) and the phased
 * composition layer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/gables.h"
#include "core/interconnect.h"
#include "core/memside.h"
#include "core/phased.h"
#include "core/serialized.h"
#include "soc/catalog.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gables {
namespace {

// ---------------------------------------------------------------
// Memory-side memory (paper Section V-A, Eq. 15)
// ---------------------------------------------------------------

TEST(MemSide, AllMissesReducesToBase)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    GablesResult base = GablesModel::evaluate(soc, u);
    MemSideMemory all_miss = MemSideMemory::uniform(2, 1.0);
    GablesResult ext = GablesModel::evaluate(soc, u, &all_miss);
    EXPECT_DOUBLE_EQ(ext.attainable, base.attainable);
    EXPECT_DOUBLE_EQ(ext.memoryTime, base.memoryTime);
    EXPECT_EQ(ext.bottleneckIp, base.bottleneckIp);
}

TEST(MemSide, PerfectReuseRemovesMemoryBound)
{
    // Figure 6b is memory bound at 1.33 Gops/s; with a perfect
    // memory-side cache the bound moves to IP[1]'s link (2 Gops/s).
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    MemSideMemory perfect = MemSideMemory::uniform(2, 0.0);
    GablesResult ext = GablesModel::evaluate(soc, u, &perfect);
    EXPECT_DOUBLE_EQ(ext.attainable, 2e9);
    EXPECT_EQ(ext.bottleneckIp, 1);
    EXPECT_EQ(ext.bottleneck, BottleneckKind::IpBandwidth);
    EXPECT_DOUBLE_EQ(ext.memoryTime, 0.0);
    EXPECT_EQ(ext.bottleneckLabel(soc), "GPU link bandwidth (Bi)");
}

TEST(MemSide, Eq15Arithmetic)
{
    // Halving off-chip traffic doubles the memory bound exactly.
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    GablesResult base = GablesModel::evaluate(soc, u);
    MemSideMemory half_miss = MemSideMemory::uniform(2, 0.5);
    GablesResult half = GablesModel::evaluate(soc, u, &half_miss);
    EXPECT_NEAR(half.memoryPerfBound, 2.0 * base.memoryPerfBound,
                1.0);
    EXPECT_DOUBLE_EQ(half.totalDataBytes, 0.5 * base.totalDataBytes);
    EXPECT_DOUBLE_EQ(half.averageIntensity,
                     2.0 * base.averageIntensity);
}

TEST(MemSide, PerIpRatios)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    // Only IP[1]'s traffic is filtered.
    MemSideMemory ext({1.0, 0.1});
    GablesResult r = GablesModel::evaluate(soc, u, &ext);
    GablesResult base = GablesModel::evaluate(soc, u);
    double expected = base.ips[0].dataBytes +
                      0.1 * base.ips[1].dataBytes;
    EXPECT_NEAR(r.totalDataBytes, expected, 1e-15);
}

TEST(MemSide, MonotoneInMissRatio)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    double prev = 0.0;
    for (double m : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        MemSideMemory ext = MemSideMemory::uniform(2, m);
        double perf = GablesModel::evaluate(soc, u, &ext).attainable;
        if (m > 0.0) {
            EXPECT_LE(perf, prev * (1.0 + 1e-12));
        }
        prev = perf;
    }
}

TEST(MemSide, InvalidInputsRejected)
{
    EXPECT_THROW(MemSideMemory({-0.1}), FatalError);
    EXPECT_THROW(MemSideMemory({1.5}), FatalError);
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    MemSideMemory three = MemSideMemory::uniform(3, 0.5);
    EXPECT_THROW(GablesModel::evaluate(soc, u, &three), FatalError);
}

TEST(MemSide, FractionalFitMissRatio)
{
    EXPECT_DOUBLE_EQ(fractionalFitMissRatio(100.0, 100.0), 0.0);
    EXPECT_DOUBLE_EQ(fractionalFitMissRatio(100.0, 200.0), 0.0);
    EXPECT_DOUBLE_EQ(fractionalFitMissRatio(100.0, 25.0), 0.75);
    EXPECT_DOUBLE_EQ(fractionalFitMissRatio(100.0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(fractionalFitMissRatio(0.0, 10.0), 0.0);
}

// ---------------------------------------------------------------
// Interconnect (paper Section V-B, Eqs. 16-17)
// ---------------------------------------------------------------

TEST(Interconnect, WideSingleBusReducesToBase)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    InterconnectModel ic({BusSpec{"bus", 1e15}},
                         {{true}, {true}});
    GablesResult r = GablesModel::evaluate(soc, u, nullptr, &ic);
    GablesResult base = GablesModel::evaluate(soc, u);
    EXPECT_DOUBLE_EQ(r.attainable, base.attainable);
    EXPECT_EQ(r.bottleneckBus, -1);
    EXPECT_EQ(r.bottleneck, base.bottleneck);
    EXPECT_EQ(r.bottleneckLabel(soc, &ic), "memory interface (Bpeak)");
}

TEST(Interconnect, NarrowBusBecomesBottleneck)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0); // 160 Gops/s base
    // Total data per op = 1/8 byte; a 1 GB/s shared bus caps
    // performance at 8 Gops/s.
    InterconnectModel ic({BusSpec{"slow", 1e9}}, {{true}, {true}});
    GablesResult r = GablesModel::evaluate(soc, u, nullptr, &ic);
    EXPECT_EQ(r.bottleneckBus, 0);
    EXPECT_DOUBLE_EQ(r.attainable, 8e9);
    // A bus is attributed as a bus, never as an IP or as memory.
    EXPECT_EQ(r.bottleneck, BottleneckKind::Bus);
    EXPECT_EQ(r.bottleneckIp, -1);
    EXPECT_EQ(r.bottleneckLabel(soc, &ic), "bus 'slow'");
    EXPECT_EQ(r.bottleneckLabel(soc), "bus 0");
}

TEST(Interconnect, Eq16OnlyCountsUsers)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    // Bus 0 carries only IP[0] (D0 = 0.03125 B), bus 1 only IP[1]
    // (D1 = 0.09375 B).
    InterconnectModel ic({BusSpec{"b0", 2e9}, BusSpec{"b1", 4e9}},
                         {{true, false}, {false, true}});
    GablesResult r = GablesModel::evaluate(soc, u, nullptr, &ic);
    ASSERT_EQ(r.busTimes.size(), 2u);
    EXPECT_NEAR(r.busTimes[0], 0.03125 / 2e9, 1e-18);
    EXPECT_NEAR(r.busTimes[1], 0.09375 / 4e9, 1e-18);
    // Worst bus: b1 at 0.09375/4e9 -> 42.7 Gops/s bound.
    EXPECT_EQ(r.bottleneckBus, 1);
    EXPECT_NEAR(r.attainable, 4e9 / 0.09375, 1.0);
}

TEST(Interconnect, HierarchyBuilder)
{
    // Two leaf fabrics feeding a system fabric (Figure 3 shape).
    InterconnectModel ic = InterconnectModel::hierarchy(
        {"multimedia", "compute"}, {10e9, 20e9}, {0, 0, 1}, 40e9);
    EXPECT_EQ(ic.numBuses(), 3u);
    EXPECT_EQ(ic.numIps(), 3u);
    EXPECT_TRUE(ic.uses(0, 0));
    EXPECT_FALSE(ic.uses(0, 1));
    EXPECT_TRUE(ic.uses(0, 2)); // all IPs cross the system fabric
    EXPECT_TRUE(ic.uses(2, 1));
    EXPECT_TRUE(ic.uses(2, 2));
}

TEST(Interconnect, HierarchyWithoutSystemFabric)
{
    InterconnectModel ic = InterconnectModel::hierarchy(
        {"only"}, {10e9}, {0, 0}, 0.0);
    EXPECT_EQ(ic.numBuses(), 1u);
    EXPECT_TRUE(ic.uses(1, 0));
}

TEST(Interconnect, InvalidInputsRejected)
{
    EXPECT_THROW(InterconnectModel({}, {}), FatalError);
    EXPECT_THROW(InterconnectModel({BusSpec{"b", 0.0}}, {{true}}),
                 FatalError);
    EXPECT_THROW(InterconnectModel({BusSpec{"b", 1e9}},
                                   {{true, false}}),
                 FatalError);
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    InterconnectModel one_row({BusSpec{"b", 1e9}}, {{true}});
    EXPECT_THROW(GablesModel::evaluate(soc, u, nullptr, &one_row),
                 FatalError);
}

// ---------------------------------------------------------------
// Both extensions together (Figures 10-11): the SRAM sits between
// the interconnect and DRAM, so buses carry the full Di while the
// memory interface carries only mi * Di.
// ---------------------------------------------------------------

TEST(Combined, NoExtensionsReducesToBase)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    GablesResult r = GablesModel::evaluate(soc, u, nullptr, nullptr);
    EXPECT_DOUBLE_EQ(r.attainable, 1.0 / r.memoryTime);
    EXPECT_EQ(r.bottleneck, BottleneckKind::Memory);
    EXPECT_TRUE(r.busTimes.empty());
    EXPECT_EQ(r.bottleneckBus, -1);
}

TEST(Combined, SramDoesNotRelieveBuses)
{
    // The SRAM is memory-side: a perfect cache removes the memory
    // term but the narrow bus still binds at the same value.
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    InterconnectModel ic({BusSpec{"slow", 1e9}}, {{true}, {true}});
    double with_bus =
        GablesModel::evaluate(soc, u, nullptr, &ic).attainable;

    MemSideMemory perfect = MemSideMemory::uniform(2, 0.0);
    GablesResult r = GablesModel::evaluate(soc, u, &perfect, &ic);
    EXPECT_DOUBLE_EQ(r.attainable, with_bus);
    EXPECT_EQ(r.bottleneck, BottleneckKind::Bus);
    EXPECT_DOUBLE_EQ(r.memoryTime, 0.0);
}

TEST(Combined, SramRelievesMemoryBehindWideBuses)
{
    // Figure 6b with wide buses: memory binds at 1.33; a half-miss
    // SRAM doubles the memory bound and the GPU link takes over.
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    InterconnectModel ic({BusSpec{"wide", 1e15}}, {{true}, {true}});
    MemSideMemory half_miss = MemSideMemory::uniform(2, 0.5);
    GablesResult r = GablesModel::evaluate(soc, u, &half_miss, &ic);
    EXPECT_DOUBLE_EQ(r.attainable, 2e9);
    EXPECT_EQ(r.bottleneck, BottleneckKind::IpBandwidth);
    EXPECT_EQ(r.bottleneckIp, 1);
    EXPECT_EQ(r.bottleneckBus, -1);
}

TEST(Combined, BottleneckLabels)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    InterconnectModel ic({BusSpec{"skinny", 1e8}}, {{true}, {true}});
    GablesResult r = GablesModel::evaluate(soc, u, nullptr, &ic);
    EXPECT_EQ(r.bottleneck, BottleneckKind::Bus);
    EXPECT_EQ(r.bottleneckLabel(soc, &ic), "bus 'skinny'");

    // Memory reads the same with or without an SRAM.
    MemSideMemory sram({1.0, 0.9});
    GablesResult rb = GablesModel::evaluate(soc, u, &sram);
    EXPECT_EQ(rb.bottleneck, BottleneckKind::Memory);
    EXPECT_EQ(rb.bottleneckLabel(soc), "memory interface (Bpeak)");

    // An unnamed IP falls back to its index, SRAM or not.
    SocSpec unnamed("anon", 10e9, 100e9, {IpSpec{"", 1.0, 100e9}});
    Usecase one("one", {IpWork{1.0, 8.0}});
    MemSideMemory one_sram({0.5});
    GablesResult ri = GablesModel::evaluate(unnamed, one, &one_sram);
    EXPECT_EQ(ri.bottleneckLabel(unnamed), "IP[0] compute (Ai*Ppeak)");
}

TEST(Combined, NeverExceedsAnySingleExtension)
{
    // The combined bound is the min over all terms, so it can never
    // beat either extension alone (property over random inputs).
    Rng rng(321);
    SocSpec soc = SocCatalog::snapdragon835();
    InterconnectModel ic = InterconnectModel::hierarchy(
        {"hb", "sys"}, {40e9, 10e9}, {0, 0, 1}, 0.0);
    for (int trial = 0; trial < 20; ++trial) {
        auto f = rng.simplex(3);
        Usecase u("r", {IpWork{f[0], rng.logUniform(0.1, 64.0)},
                        IpWork{f[1], rng.logUniform(0.1, 64.0)},
                        IpWork{f[2], rng.logUniform(0.1, 64.0)}});
        MemSideMemory memside({rng.uniform(), rng.uniform(),
                               rng.uniform()});
        double combined =
            GablesModel::evaluate(soc, u, &memside, &ic).attainable;
        EXPECT_LE(combined,
                  GablesModel::evaluate(soc, u, &memside).attainable *
                      (1 + 1e-12));
        EXPECT_LE(combined,
                  GablesModel::evaluate(soc, u, nullptr, &ic)
                          .attainable *
                      (1 + 1e-12));
    }
}

TEST(Combined, MismatchedMemsideRejected)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    InterconnectModel ic({BusSpec{"b", 1e9}}, {{true}, {true}});
    MemSideMemory three = MemSideMemory::uniform(3, 0.5);
    EXPECT_THROW(GablesModel::evaluate(soc, u, &three, &ic), FatalError);
}

// ---------------------------------------------------------------
// Serialized work (paper Section V-C, Eqs. 18-19)
// ---------------------------------------------------------------

TEST(Serialized, SingleIpMatchesOwnRoofline)
{
    // With one IP doing everything, serialized == concurrent ==
    // the IP's roofline with the extra Bpeak term.
    SocSpec soc("one", 10e9, 20e9, {IpSpec{"CPU", 1.0, 8e9}});
    Usecase u("u", {IpWork{1.0, 2.0}});
    double ser = SerializedModel::evaluate(soc, u).attainable;
    double con = GablesModel::evaluate(soc, u).attainable;
    EXPECT_DOUBLE_EQ(ser, con);
}

TEST(Serialized, Eq18IncludesBpeakTerm)
{
    // A huge link but tiny chip bandwidth: the Di/Bpeak term binds.
    SocSpec soc("t", 100e9, 1e9, {IpSpec{"CPU", 1.0, 1000e9}});
    Usecase u("u", {IpWork{1.0, 0.5}});
    // D = 2 bytes/op; T' = max(2/1e9, 2/1000e9, 1/100e9) = 2e-9.
    EXPECT_DOUBLE_EQ(SerializedModel::evaluate(soc, u).attainable,
                     0.5e9);
}

TEST(Serialized, TimesAddAcrossIps)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    SerializedResult r = SerializedModel::evaluate(soc, u);
    // T'0 = max(D0/Bpeak, D0/B0, C0); D0 = 0.03125, C0 = 0.25/40e9.
    double t0 = std::max({0.03125 / 20e9, 0.03125 / 6e9,
                          0.25 / 40e9});
    double t1 = std::max({0.09375 / 20e9, 0.09375 / 15e9,
                          0.75 / 200e9});
    EXPECT_NEAR(r.ipTimes[0], t0, 1e-18);
    EXPECT_NEAR(r.ipTimes[1], t1, 1e-18);
    EXPECT_NEAR(r.attainable, 1.0 / (t0 + t1), 1.0);
}

TEST(Serialized, DominantIpIdentified)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    SerializedResult r = SerializedModel::evaluate(soc, u);
    EXPECT_EQ(r.dominantIp, 1); // GPU's low reuse dominates
    EXPECT_GT(r.dominantShare, 0.5);
    EXPECT_LE(r.dominantShare, 1.0);
}

// Concurrent (base Gables) over serialized execution is >= 1 up to
// rounding: summing times can never beat taking their max.
TEST(Serialized, ConcurrencySpeedupAtLeastOne)
{
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        double f = rng.uniform(0.05, 0.95);
        SocSpec soc = SocCatalog::paperTwoIp();
        Usecase u = Usecase::twoIp("u", f, rng.logUniform(0.1, 100.0),
                                   rng.logUniform(0.1, 100.0));
        EXPECT_GE(GablesModel::evaluate(soc, u).attainable /
                      SerializedModel::evaluate(soc, u).attainable,
                  1.0 - 1e-12);
    }
}

TEST(Serialized, IdleIpsSkipped)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.0, 4.0, 1.0);
    SerializedResult r = SerializedModel::evaluate(soc, u);
    EXPECT_DOUBLE_EQ(r.ipTimes[1], 0.0);
    EXPECT_EQ(r.dominantIp, 0);
}

// ---------------------------------------------------------------
// Phased composition
// ---------------------------------------------------------------

TEST(Phased, SinglePhaseMatchesUnderlyingModel)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    PhasedUsecase phased(
        "p", {Phase{"all", 1.0, PhaseMode::Concurrent, u}});
    EXPECT_DOUBLE_EQ(phased.evaluate(soc).attainable,
                     GablesModel::evaluate(soc, u).attainable);

    PhasedUsecase serial(
        "s", {Phase{"all", 1.0, PhaseMode::Exclusive, u}});
    EXPECT_DOUBLE_EQ(serial.evaluate(soc).attainable,
                     SerializedModel::evaluate(soc, u).attainable);
}

TEST(Phased, HarmonicCombinationOfPhases)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase fast = Usecase::twoIp("fast", 0.75, 8.0, 8.0); // 160 G
    Usecase slow = Usecase::twoIp("slow", 0.75, 8.0, 0.1); // slower
    double p_fast = GablesModel::evaluate(soc, fast).attainable;
    double p_slow = GablesModel::evaluate(soc, slow).attainable;

    PhasedUsecase phased(
        "p", {Phase{"a", 0.5, PhaseMode::Concurrent, fast},
              Phase{"b", 0.5, PhaseMode::Concurrent, slow}});
    PhasedResult r = phased.evaluate(soc);
    double expected = 1.0 / (0.5 / p_fast + 0.5 / p_slow);
    EXPECT_NEAR(r.attainable, expected, expected * 1e-12);
    EXPECT_EQ(r.dominantPhase, 1);
    EXPECT_NEAR(r.timeShare[0] + r.timeShare[1], 1.0, 1e-12);
}

TEST(Phased, SharesMustSumToOne)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    EXPECT_THROW(PhasedUsecase("bad",
                               {Phase{"a", 0.6, PhaseMode::Concurrent,
                                      u},
                                Phase{"b", 0.6, PhaseMode::Concurrent,
                                      u}}),
                 FatalError);
    EXPECT_THROW(PhasedUsecase("empty", {}), FatalError);
}

TEST(Phased, ZeroSharePhaseCostsNothing)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.5, 4.0, 4.0);
    PhasedUsecase phased(
        "p", {Phase{"real", 1.0, PhaseMode::Concurrent, u},
              Phase{"ghost", 0.0, PhaseMode::Exclusive, u}});
    EXPECT_DOUBLE_EQ(phased.evaluate(soc).attainable,
                     GablesModel::evaluate(soc, u).attainable);
}

} // namespace
} // namespace gables
