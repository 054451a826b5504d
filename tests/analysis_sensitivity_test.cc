/**
 * @file
 * Tests for sensitivity/elasticity analysis: the binding resource
 * shows elasticity ~1, slack resources ~0.
 */

#include <gtest/gtest.h>

#include "analysis/sensitivity.h"
#include "soc/catalog.h"

namespace gables {
namespace {

/** Find an entry by parameter label. */
double
entryFor(const std::vector<SensitivityEntry> &entries,
         const std::string &name)
{
    for (const SensitivityEntry &e : entries) {
        if (e.parameter == name)
            return e.elasticity;
    }
    ADD_FAILURE() << "no sensitivity entry '" << name << "'";
    return -999.0;
}

TEST(Sensitivity, MemoryBoundUsecaseTracksBpeak)
{
    // Figure 6b: memory is the bottleneck, so Bpeak has elasticity 1
    // and compute knobs have 0.
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    auto entries = Sensitivity::analyze(soc, u);
    EXPECT_NEAR(entryFor(entries, "Bpeak"), 1.0, 1e-6);
    EXPECT_NEAR(entryFor(entries, "Ppeak"), 0.0, 1e-9);
    EXPECT_NEAR(entryFor(entries, "A[1]"), 0.0, 1e-9);
    EXPECT_NEAR(entryFor(entries, "B[0]"), 0.0, 1e-9);
}

TEST(Sensitivity, ComputeBoundUsecaseTracksPpeak)
{
    // Figure 6a: the CPU's compute roof binds.
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6a", 0.0, 8.0, 0.1);
    auto entries = Sensitivity::analyze(soc, u);
    EXPECT_NEAR(entryFor(entries, "Ppeak"), 1.0, 1e-6);
    EXPECT_NEAR(entryFor(entries, "Bpeak"), 0.0, 1e-9);
}

TEST(Sensitivity, LinkBoundUsecaseTracksIpBandwidthAndIntensity)
{
    // Figure 6c: IP[1]'s link with poor reuse binds, so both B[1]
    // and I[1] carry elasticity ~1.
    SocSpec soc = SocCatalog::paperTwoIp().with(Param::bpeak(), 30e9);
    Usecase u = Usecase::twoIp("6c", 0.75, 8.0, 0.1);
    auto entries = Sensitivity::analyze(soc, u);
    EXPECT_NEAR(entryFor(entries, "B[1]"), 1.0, 1e-6);
    EXPECT_NEAR(entryFor(entries, "I[1]"), 1.0, 0.05);
    EXPECT_NEAR(entryFor(entries, "Ppeak"), 0.0, 1e-9);
}

TEST(Sensitivity, BalancedDesignSharesElasticity)
{
    // Figure 6d: every resource binds simultaneously, so no single
    // knob gives a full unit of improvement (growing one alone
    // leaves the others binding -> elasticity ~0.5 from the central
    // difference: shrink hurts, grow does not help).
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    auto entries = Sensitivity::analyze(soc, u);
    double bpeak = entryFor(entries, "Bpeak");
    EXPECT_GT(bpeak, 0.05);
    EXPECT_LT(bpeak, 1.0);
}

TEST(Sensitivity, SkipsIdleAndInfiniteIntensities)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u("u", {IpWork{1.0, inf}, IpWork{0.0, 1.0}});
    auto entries = Sensitivity::analyze(soc, u);
    for (const SensitivityEntry &e : entries) {
        EXPECT_NE(e.parameter, "I[0]"); // infinite intensity skipped
        EXPECT_NE(e.parameter, "I[1]"); // idle IP skipped
    }
}

TEST(Sensitivity, EntryCountMatchesParameters)
{
    SocSpec soc = SocCatalog::snapdragon835();
    Usecase u("u", {IpWork{0.3, 4.0}, IpWork{0.6, 2.0},
                    IpWork{0.1, 1.0}});
    auto entries = Sensitivity::analyze(soc, u);
    // Ppeak + Bpeak + A[1], A[2] + B[0..2] + I[0..2] = 10.
    EXPECT_EQ(entries.size(), 10u);
}

} // namespace
} // namespace gables
