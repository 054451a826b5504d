/**
 * @file
 * Tests for the energy/TDP extension.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/energy.h"
#include "soc/catalog.h"
#include "util/logging.h"

namespace gables {
namespace {

/**
 * A mobile-flavoured energy model for the paper two-IP SoC: the CPU
 * costs 100 pJ/op, the accelerator 10 pJ/op (the paper's order-of-
 * magnitude efficiency claim), DRAM 20 pJ/byte, 0.5 W static.
 */
EnergyModel
mobileEnergy()
{
    return EnergyModel({100e-12, 10e-12}, 20e-12, 0.5);
}

TEST(Energy, UsecaseEnergyPerOpArithmetic)
{
    EnergyModel e = mobileEnergy();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    // 0.25*100p + 0.75*10p + (1/8 B/op)*20p = 25 + 7.5 + 2.5 pJ.
    EXPECT_NEAR(e.usecaseEnergyPerOp(u), 35e-12, 1e-18);
}

TEST(Energy, InfiniteIntensityCostsNoDramEnergy)
{
    EnergyModel e = mobileEnergy();
    constexpr double inf = std::numeric_limits<double>::infinity();
    Usecase u("pure", {IpWork{1.0, inf}, IpWork{0.0, 1.0}});
    EXPECT_NEAR(e.usecaseEnergyPerOp(u), 100e-12, 1e-18);
}

TEST(Energy, GenerousTdpLeavesRooflineBound)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    EnergyResult r = mobileEnergy().evaluate(soc, u, 100.0);
    EXPECT_DOUBLE_EQ(r.constrained, 160e9);
    EXPECT_FALSE(r.thermallyLimited);
    // Power at 160 Gops/s and 35 pJ/op: 5.6 W + 0.5 static.
    EXPECT_NEAR(r.power, 6.1, 0.01);
}

TEST(Energy, TightTdpBindsInstead)
{
    // The paper's 3 W phone budget: (3 - 0.5) / 35 pJ = 71.4 Gops/s,
    // well under the 160 Gops/s roofline bound.
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    EnergyResult r = mobileEnergy().evaluate(soc, u, 3.0);
    EXPECT_TRUE(r.thermallyLimited);
    EXPECT_NEAR(r.constrained, 2.5 / 35e-12, 1e6);
    EXPECT_NEAR(r.power, 3.0, 1e-9); // runs exactly at the cap
}

TEST(Energy, OffloadSavesEnergyEvenWhenPerfSimilar)
{
    // Moving work to the 10x-more-efficient accelerator cuts J/op.
    EnergyModel e = mobileEnergy();
    Usecase cpu_only = Usecase::twoIp("cpu", 0.0, 8.0, 8.0);
    Usecase offloaded = Usecase::twoIp("gpu", 0.9, 8.0, 8.0);
    EXPECT_GT(e.usecaseEnergyPerOp(cpu_only),
              2.0 * e.usecaseEnergyPerOp(offloaded));
}

TEST(Energy, InvalidInputsRejected)
{
    EXPECT_THROW(EnergyModel({}, 1e-12, 0.0), FatalError);
    EXPECT_THROW(EnergyModel({0.0}, 1e-12, 0.0), FatalError);
    EXPECT_THROW(EnergyModel({1e-12}, -1.0, 0.0), FatalError);
    EXPECT_THROW(EnergyModel({1e-12}, 1e-12, -0.5), FatalError);

    EnergyModel e = mobileEnergy();
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    EXPECT_THROW(e.evaluate(soc, u, 0.4), FatalError); // <= static

    Usecase three("t", {IpWork{0.4, 1.0}, IpWork{0.3, 1.0},
                        IpWork{0.3, 1.0}});
    EXPECT_THROW(e.usecaseEnergyPerOp(three), FatalError);
}

TEST(Energy, MoreTdpNeverHurts)
{
    SocSpec soc = SocCatalog::snapdragon835();
    Usecase u("u", {IpWork{0.2, 4.0}, IpWork{0.7, 8.0},
                    IpWork{0.1, 1.0}});
    EnergyModel e({100e-12, 10e-12, 5e-12}, 20e-12, 0.3);
    double prev = 0.0;
    for (double tdp : {1.0, 2.0, 3.0, 5.0, 10.0}) {
        double p = e.evaluate(soc, u, tdp).constrained;
        EXPECT_GE(p, prev);
        prev = p;
    }
}

} // namespace
} // namespace gables
