/**
 * @file
 * Tests for the shrink-to-fit provisioner: it must recover the
 * paper's Figure 6d sizing on its own, always produce feasible
 * minimal designs, and report infeasible starts honestly.
 */

#include <gtest/gtest.h>

#include "analysis/provisioner.h"
#include "soc/catalog.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gables {
namespace {

TEST(Provisioner, RecoversFigure6dBpeak)
{
    // Start from the wasteful 30 GB/s design of Figure 6c with the
    // reuse fix applied; demand the full 160 Gops/s. The provisioner
    // must shrink Bpeak to the paper's sufficient 20 GB/s (nothing
    // else can shrink: the design is otherwise balanced).
    SocSpec start = SocCatalog::paperTwoIp().with(Param::bpeak(), 30e9);
    Requirement req{Usecase::twoIp("6d", 0.75, 8.0, 8.0), 160e9};
    ProvisionedDesign r = Provisioner::minimize(start, {req});
    ASSERT_TRUE(r.feasible);
    EXPECT_NEAR(r.soc.bpeak(), 20e9, 20e9 * 0.01);
    EXPECT_NEAR(r.soc.ip(0).bandwidth, 5e9, 5e9 * 0.01);
    EXPECT_NEAR(r.soc.ip(1).bandwidth, 15e9, 15e9 * 0.01);
    // A1 shrinks to 3: the link roofline min(B1*I1, A1*Ppeak) binds
    // at B1*I1 = 120, so the compute roof only needs A1*40 >= 120.
    EXPECT_NEAR(r.soc.ip(1).acceleration, 3.0, 3.0 * 0.01);
    EXPECT_GE(r.achieved[0], 160e9 * 0.999);
}

TEST(Provisioner, RelaxedTargetShrinksEverything)
{
    // Demand only a quarter of the capability: every rate knob
    // shrinks to about a quarter.
    SocSpec start = SocCatalog::paperTwoIpBalanced();
    Requirement req{Usecase::twoIp("u", 0.75, 8.0, 8.0), 40e9};
    ProvisionedDesign r = Provisioner::minimize(start, {req});
    ASSERT_TRUE(r.feasible);
    EXPECT_NEAR(r.soc.bpeak(), 5e9, 5e9 * 0.01);
    EXPECT_GE(r.achieved[0], 40e9 * 0.999);
    EXPECT_LE(r.achieved[0], 40e9 * 1.05);
}

TEST(Provisioner, InfeasibleStartReported)
{
    SocSpec start = SocCatalog::paperTwoIp(); // caps at 40 Gops/s
    Requirement req{Usecase::twoIp("u", 0.0, 8.0, 1.0), 100e9};
    ProvisionedDesign r = Provisioner::minimize(start, {req});
    EXPECT_FALSE(r.feasible);
    EXPECT_DOUBLE_EQ(r.soc.bpeak(), start.bpeak()); // untouched
    EXPECT_LT(r.achieved[0], 100e9);
}

TEST(Provisioner, MultiUsecasePortfolio)
{
    // Two usecases with different binding resources: the design must
    // keep enough of BOTH (the paper: the average is immaterial,
    // every usecase must run).
    SocSpec start("big", 7.5e9, 60e9,
                  {IpSpec{"CPU", 1.0, 30e9},
                   IpSpec{"GPU", 60.0, 48e9}});
    Requirement compute{Usecase::twoIp("compute", 0.98, 16.0, 64.0),
                        200e9};
    Requirement stream{Usecase::twoIp("stream", 0.8, 1.0, 0.5), 15e9};
    ProvisionedDesign r =
        Provisioner::minimize(start, {compute, stream});
    ASSERT_TRUE(r.feasible);
    EXPECT_GE(r.achieved[0], 200e9 * 0.999);
    EXPECT_GE(r.achieved[1], 15e9 * 0.999);
    // The streaming usecase needs 0.8/0.5 + 0.2/1 = 1.8 B/op at
    // 15 Gops/s -> Bpeak >= 27 GB/s even though the compute usecase
    // alone would allow far less.
    EXPECT_GE(r.soc.bpeak(), 26.9e9);
}

TEST(Provisioner, ResultIsLocallyMinimal)
{
    // Shrinking any knob of the result by 10% must violate a target.
    SocSpec start = SocCatalog::paperTwoIp().with(Param::bpeak(), 30e9);
    Requirement req{Usecase::twoIp("6d", 0.75, 8.0, 8.0), 160e9};
    ProvisionedDesign r = Provisioner::minimize(start, {req});
    ASSERT_TRUE(r.feasible);
    EXPECT_FALSE(Provisioner::meetsAll(
        r.soc.with(Param::bpeak(), r.soc.bpeak() * 0.9), {req}));
    for (size_t i = 0; i < r.soc.numIps(); ++i) {
        EXPECT_FALSE(Provisioner::meetsAll(
            r.soc.with(Param::ipBandwidth(i), r.soc.ip(i).bandwidth * 0.9),
            {req}))
            << "link " << i;
    }
    EXPECT_FALSE(Provisioner::meetsAll(
        r.soc.with(Param::acceleration(1), r.soc.ip(1).acceleration * 0.9),
        {req}));
}

TEST(Provisioner, RandomizedDesignsStayFeasibleAndShrink)
{
    Rng rng(777);
    for (int trial = 0; trial < 10; ++trial) {
        SocSpec start("r", 10e9, 80e9,
                      {IpSpec{"A", 1.0, rng.logUniform(20e9, 60e9)},
                       IpSpec{"B", rng.logUniform(5.0, 40.0),
                              rng.logUniform(20e9, 60e9)}});
        Usecase u = Usecase::twoIp("u", rng.uniform(0.2, 0.8),
                                   rng.logUniform(0.5, 32.0),
                                   rng.logUniform(0.5, 32.0));
        double capability =
            GablesModel::evaluate(start, u).attainable;
        Requirement req{u, capability * rng.uniform(0.3, 0.9)};
        ProvisionedDesign r = Provisioner::minimize(start, {req});
        ASSERT_TRUE(r.feasible) << "trial " << trial;
        EXPECT_GE(r.achieved[0], req.minPerf * 0.999);
        // Cost never grows.
        EXPECT_LE(r.soc.bpeak(), start.bpeak() * 1.001);
        for (size_t i = 0; i < start.numIps(); ++i) {
            EXPECT_LE(r.soc.ip(i).bandwidth,
                      start.ip(i).bandwidth * 1.001);
            EXPECT_LE(r.soc.ip(i).acceleration,
                      start.ip(i).acceleration * 1.001);
        }
    }
}

TEST(Provisioner, InvalidInputsRejected)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    EXPECT_THROW(Provisioner::minimize(soc, {}), FatalError);
    Requirement bad{Usecase::twoIp("u", 0.5, 1.0, 1.0), 0.0};
    EXPECT_THROW(Provisioner::minimize(soc, {bad}), FatalError);
    Requirement mismatched{Usecase("m", {IpWork{1.0, 1.0}}), 1e9};
    EXPECT_THROW(Provisioner::minimize(soc, {mismatched}),
                 FatalError);
}

} // namespace
} // namespace gables
