/**
 * @file
 * Numerical-robustness property tests: the model must stay finite,
 * positive, and self-consistent across parameter magnitudes spanning
 * sixty orders of magnitude, and must reject non-finite inputs
 * cleanly rather than propagating NaNs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/gables.h"
#include "core/serialized.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gables {
namespace {

class ExtremeMagnitudes : public ::testing::TestWithParam<double>
{
};

TEST_P(ExtremeMagnitudes, EvaluateStaysFiniteAndDual)
{
    // Scale the paper SoC by the parameterized magnitude; attainable
    // performance must scale exactly linearly (the model is
    // homogeneous of degree 1 in the rate parameters) and both
    // equation forms must agree.
    double scale = GetParam();
    SocSpec soc("scaled", 40e9 * scale, 10e9 * scale,
                {IpSpec{"CPU", 1.0, 6e9 * scale},
                 IpSpec{"GPU", 5.0, 15e9 * scale}});
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);

    GablesResult r = GablesModel::evaluate(soc, u);
    EXPECT_TRUE(std::isfinite(r.attainable));
    EXPECT_GT(r.attainable, 0.0);
    // Homogeneity: P(scale * rates) == scale * P(rates).
    EXPECT_NEAR(r.attainable / (1.3278e9 * scale), 1.0, 1e-4);
    // Duality holds at this magnitude too.
    EXPECT_NEAR(GablesModel::attainablePerfForm(soc, u) /
                    r.attainable,
                1.0, 1e-9);
    // Serialized stays finite and below concurrent.
    double ser = SerializedModel::evaluate(soc, u).attainable;
    EXPECT_TRUE(std::isfinite(ser));
    EXPECT_LE(ser, r.attainable * (1.0 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, ExtremeMagnitudes,
                         ::testing::Values(1e-30, 1e-15, 1e-6, 1.0,
                                           1e6, 1e15, 1e30));

TEST(Extremes, ExtremeIntensitiesStayConsistent)
{
    SocSpec soc("s", 10e9, 20e9,
                {IpSpec{"A", 1.0, 8e9}, IpSpec{"B", 4.0, 12e9}});
    for (double intensity : {1e-20, 1e-6, 1e6, 1e20}) {
        Usecase u = Usecase::twoIp("u", 0.5, intensity, intensity);
        GablesResult r = GablesModel::evaluate(soc, u);
        EXPECT_TRUE(std::isfinite(r.attainable)) << intensity;
        EXPECT_GT(r.attainable, 0.0) << intensity;
        EXPECT_NEAR(GablesModel::attainablePerfForm(soc, u) /
                        r.attainable,
                    1.0, 1e-9)
            << intensity;
    }
}

TEST(Extremes, TinyFractionsDoNotBlowUp)
{
    SocSpec soc("s", 10e9, 20e9,
                {IpSpec{"A", 1.0, 8e9}, IpSpec{"B", 4.0, 12e9}});
    for (double f : {1e-15, 1e-9, 1.0 - 1e-15}) {
        Usecase u = Usecase::twoIp("u", f, 2.0, 2.0);
        GablesResult r = GablesModel::evaluate(soc, u);
        EXPECT_TRUE(std::isfinite(r.attainable)) << f;
        EXPECT_GT(r.attainable, 0.0) << f;
    }
}

TEST(Extremes, NonFiniteSpecInputsRejected)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(SocSpec("bad", inf, 1e9, {IpSpec{"A", 1.0, 1e9}}),
                 FatalError);
    EXPECT_THROW(SocSpec("bad", 1e9, inf, {IpSpec{"A", 1.0, 1e9}}),
                 FatalError);
    EXPECT_THROW(SocSpec("bad", 1e9, 1e9, {IpSpec{"A", 1.0, inf}}),
                 FatalError);
    EXPECT_THROW(SocSpec("bad", nan, 1e9, {IpSpec{"A", 1.0, 1e9}}),
                 FatalError);
    // NaN comparisons are false, so the validation predicates must
    // be written to catch them.
    EXPECT_THROW(SocSpec("bad", 1e9, 1e9, {IpSpec{"A", 1.0, nan}}),
                 FatalError);
    // Ppeak and A1 are finite but their product, the IP's peak, is
    // not: its compute time would round to zero.
    EXPECT_THROW(SocSpec("bad", 1e300, 1e9,
                         {IpSpec{"A", 1.0, 1e9}, IpSpec{"B", 1e10, 1e9}}),
                 FatalError);
    EXPECT_NO_THROW(SocSpec("ok", std::numeric_limits<double>::max(), 1e9,
                            {IpSpec{"A", 1.0, 1e9}}));
}

TEST(Extremes, NonFiniteUsecaseInputsRejected)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(Usecase("bad", {IpWork{inf, 1.0}}), FatalError);
    EXPECT_THROW(Usecase("bad", {IpWork{nan, 1.0},
                                 IpWork{1.0, 1.0}}),
                 FatalError);
    EXPECT_THROW(Usecase("bad", {IpWork{1.0, nan}}), FatalError);
    // Infinite intensity is the documented "no traffic" convention
    // and must be accepted.
    EXPECT_NO_THROW(Usecase("ok", {IpWork{1.0, inf}}));
}

TEST(Extremes, MixedMagnitudeIpsAcrossThirtyOrders)
{
    // One IP a thousand-billion-billion times faster than the other:
    // the model must still pick the right bottleneck.
    SocSpec soc("mixed", 1.0, 1e30,
                {IpSpec{"tiny", 1.0, 1e30},
                 IpSpec{"huge", 1e30, 1e30}});
    Usecase u = Usecase::twoIp("u", 0.5, 1e6, 1e6);
    GablesResult r = GablesModel::evaluate(soc, u);
    // The tiny IP's 0.5 work at ~1 op/s dominates: P ~ 2 ops/s.
    EXPECT_NEAR(r.attainable, 2.0, 1e-6);
    EXPECT_EQ(r.bottleneckIp, 0);
}

} // namespace
} // namespace gables
