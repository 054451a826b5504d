/**
 * @file
 * Unit tests for the compiled single-point GablesPack<1>: bit-identity
 * with the GablesModel::evaluate() oracle, the attainable() fast path,
 * every single-parameter mutator against a from-scratch rebuild,
 * input validation, inactive and infinite-intensity IPs, and the
 * evalCount telemetry hook.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/evaluator.h"
#include "core/gables.h"
#include "soc/catalog.h"
#include "util/logging.h"

namespace gables {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** Assert every field of two results matches bit-for-bit. */
void
expectBitIdentical(const GablesResult &a, const GablesResult &b)
{
    EXPECT_EQ(bits(a.attainable), bits(b.attainable));
    EXPECT_EQ(bits(a.memoryTime), bits(b.memoryTime));
    EXPECT_EQ(bits(a.memoryPerfBound), bits(b.memoryPerfBound));
    EXPECT_EQ(bits(a.averageIntensity), bits(b.averageIntensity));
    EXPECT_EQ(bits(a.totalDataBytes), bits(b.totalDataBytes));
    EXPECT_EQ(a.bottleneckIp, b.bottleneckIp);
    EXPECT_EQ(a.bottleneck, b.bottleneck);
    ASSERT_EQ(a.ips.size(), b.ips.size());
    for (size_t i = 0; i < a.ips.size(); ++i) {
        EXPECT_EQ(bits(a.ips[i].computeTime), bits(b.ips[i].computeTime))
            << "ip " << i;
        EXPECT_EQ(bits(a.ips[i].dataBytes), bits(b.ips[i].dataBytes))
            << "ip " << i;
        EXPECT_EQ(bits(a.ips[i].transferTime),
                  bits(b.ips[i].transferTime))
            << "ip " << i;
        EXPECT_EQ(bits(a.ips[i].time), bits(b.ips[i].time)) << "ip "
                                                            << i;
        EXPECT_EQ(bits(a.ips[i].perfBound), bits(b.ips[i].perfBound))
            << "ip " << i;
    }
}

/** Run the single-point pack and return its full result. */
GablesResult
evaluate(GablesPack<1> &ev)
{
    GablesResult out;
    ev.run();
    ev.evaluate(0, out);
    return out;
}

/** Run the single-point pack and return its attainable performance. */
double
attainable(GablesPack<1> &ev)
{
    ev.run();
    return ev.attainable(0);
}

SocSpec
threeIp()
{
    return SocSpec("three", 10e9, 20e9,
                   {IpSpec{"CPU", 1.0, 8e9}, IpSpec{"GPU", 20.0, 25e9},
                    IpSpec{"DSP", 0.5, 5e9}});
}

TEST(Evaluator, MatchesLegacyOnCatalogSocs)
{
    struct Case {
        SocSpec soc;
        Usecase usecase;
    };
    std::vector<IpWork> even(kNumFullSocIps, IpWork{0.1, 2.0});
    Case cases[] = {
        {SocCatalog::paperTwoIp(), Usecase::twoIp("6b", 0.75, 8.0, 0.1)},
        {SocCatalog::paperTwoIp(), Usecase::twoIp("6a", 0.0, 8.0, 0.1)},
        {SocCatalog::snapdragon835(),
         Usecase("mix", {IpWork{0.5, 4.0}, IpWork{0.3, 16.0},
                         IpWork{0.2, 1.0}})},
        {SocCatalog::snapdragon821(),
         Usecase("gpu", {IpWork{0.0, 1.0}, IpWork{1.0, 0.25},
                         IpWork{0.0, 1.0}})},
        {SocCatalog::snapdragon835Full(), Usecase("even", even)},
    };
    for (const Case &c : cases) {
        GablesPack<1> ev(c.soc, c.usecase);
        GablesResult fast = evaluate(ev);
        GablesResult legacy = GablesModel::evaluate(c.soc, c.usecase);
        expectBitIdentical(fast, legacy);
        EXPECT_EQ(bits(attainable(ev)), bits(legacy.attainable));
    }
}

TEST(Evaluator, ScratchResultReuseIsIdentical)
{
    SocSpec soc = threeIp();
    Usecase a("a", {IpWork{0.5, 4.0}, IpWork{0.25, 16.0},
                    IpWork{0.25, 1.0}});
    Usecase b("b", {IpWork{0.1, 0.5}, IpWork{0.9, 64.0},
                    IpWork{0.0, 1.0}});
    GablesPack<1> ev(soc, a);
    GablesResult scratch;
    ev.run();
    ev.evaluate(0, scratch);
    expectBitIdentical(scratch, GablesModel::evaluate(soc, a));

    // Mutate to usecase b in place; the reused scratch must carry no
    // stale state.
    for (size_t i = 0; i < soc.numIps(); ++i)
        ev.setWork(0, i, b.fraction(i), b.intensity(i));
    ev.run();
    ev.evaluate(0, scratch);
    expectBitIdentical(scratch, GablesModel::evaluate(soc, b));
}

TEST(Evaluator, EachMutatorMatchesRebuild)
{
    SocSpec soc = threeIp();
    Usecase u("u", {IpWork{0.5, 4.0}, IpWork{0.3, 16.0},
                    IpWork{0.2, 1.0}});
    GablesPack<1> ev(soc, u);

    ev.setPpeak(0, 17e9);
    expectBitIdentical(
        evaluate(ev),
        GablesModel::evaluate(SocSpec("s", 17e9, soc.bpeak(),
                                      {soc.ip(0), soc.ip(1),
                                       soc.ip(2)}),
                              u));
    ev.setPpeak(0, soc.ppeak());

    ev.setBpeak(0, 7e9);
    expectBitIdentical(evaluate(ev),
                       GablesModel::evaluate(soc.withBpeak(7e9), u));
    ev.setBpeak(0, soc.bpeak());

    ev.setAcceleration(0, 1, 3.5);
    expectBitIdentical(
        evaluate(ev),
        GablesModel::evaluate(soc.withIpAcceleration(1, 3.5), u));
    ev.setAcceleration(0, 1, soc.ip(1).acceleration);

    ev.setIpBandwidth(0, 2, 11e9);
    expectBitIdentical(
        evaluate(ev),
        GablesModel::evaluate(soc.withIpBandwidth(2, 11e9), u));
    ev.setIpBandwidth(0, 2, soc.ip(2).bandwidth);

    ev.setIntensity(0, 0, 0.125);
    expectBitIdentical(
        evaluate(ev),
        GablesModel::evaluate(soc,
                              u.withWork(0, IpWork{0.5, 0.125})));
    ev.setIntensity(0, 0, u.intensity(0));

    ev.setFraction(0, 1, 0.2);
    ev.setFraction(0, 2, 0.3);
    expectBitIdentical(
        evaluate(ev),
        GablesModel::evaluate(
            soc, Usecase("v", {IpWork{0.5, 4.0}, IpWork{0.2, 16.0},
                               IpWork{0.3, 1.0}})));

    // After the full mutate-and-restore tour the original point must
    // reproduce exactly.
    ev.setFraction(0, 1, 0.3);
    ev.setFraction(0, 2, 0.2);
    expectBitIdentical(evaluate(ev), GablesModel::evaluate(soc, u));
}

TEST(Evaluator, InactiveAndInfiniteLanes)
{
    SocSpec soc = threeIp();
    Usecase u("edge", {IpWork{0.0, 1.0}, IpWork{0.5, kInf},
                       IpWork{0.5, 2.0}});
    GablesPack<1> ev(soc, u);
    GablesResult legacy = GablesModel::evaluate(soc, u);
    expectBitIdentical(evaluate(ev), legacy);
    EXPECT_TRUE(std::isinf(evaluate(ev).ips[0].perfBound));

    // Activating the idle lane and idling an active one through the
    // mutators still matches a rebuild.
    ev.setWork(0, 0, 0.5, 3.0);
    ev.setWork(0, 1, 0.0, 1.0);
    expectBitIdentical(
        evaluate(ev),
        GablesModel::evaluate(
            soc, Usecase("e2", {IpWork{0.5, 3.0}, IpWork{0.0, 1.0},
                                IpWork{0.5, 2.0}})));
}

TEST(Evaluator, InvalidInputsRejected)
{
    SocSpec soc = threeIp();
    Usecase u("u", {IpWork{0.5, 4.0}, IpWork{0.3, 16.0},
                    IpWork{0.2, 1.0}});
    Usecase two = Usecase::twoIp("two", 0.5, 1.0, 1.0);
    EXPECT_THROW(GablesPack<1>(soc, two), FatalError);

    GablesPack<1> ev(soc, u);
    EXPECT_THROW(ev.setPpeak(0, 0.0), FatalError);
    EXPECT_THROW(ev.setPpeak(0, -1.0), FatalError);
    EXPECT_THROW(ev.setBpeak(0, kInf), FatalError);
    EXPECT_THROW(ev.setAcceleration(0, 0, 2.0), FatalError); // A0 pinned
    EXPECT_THROW(ev.setAcceleration(0, 1, 0.0), FatalError);
    EXPECT_THROW(ev.setAcceleration(0, 7, 2.0), FatalError);
    EXPECT_THROW(ev.setIpBandwidth(0, 1, -3.0), FatalError);
    EXPECT_THROW(ev.setFraction(0, 2, -0.1), FatalError);
    EXPECT_THROW(ev.setIntensity(0, 2, 0.0), FatalError);
    EXPECT_THROW(ev.setWork(0, 9, 0.5, 1.0), FatalError);

    // A rejected mutation must leave the compiled state untouched.
    expectBitIdentical(evaluate(ev), GablesModel::evaluate(soc, u));
}

TEST(Evaluator, GettersReflectMutations)
{
    SocSpec soc = threeIp();
    Usecase u("u", {IpWork{0.5, 4.0}, IpWork{0.3, 16.0},
                    IpWork{0.2, 1.0}});
    GablesPack<1> ev(soc, u);
    EXPECT_EQ(ev.numIps(), 3u);
    EXPECT_DOUBLE_EQ(ev.ppeak(0), 10e9);
    EXPECT_DOUBLE_EQ(ev.bpeak(0), 20e9);
    EXPECT_DOUBLE_EQ(ev.acceleration(0, 1), 20.0);
    EXPECT_DOUBLE_EQ(ev.ipBandwidth(0, 2), 5e9);
    EXPECT_DOUBLE_EQ(ev.fraction(0, 0), 0.5);
    EXPECT_DOUBLE_EQ(ev.intensity(0, 1), 16.0);
    ev.setBpeak(0, 9e9);
    ev.setWork(0, 0, 0.4, 2.0);
    EXPECT_DOUBLE_EQ(ev.bpeak(0), 9e9);
    EXPECT_DOUBLE_EQ(ev.fraction(0, 0), 0.4);
    EXPECT_DOUBLE_EQ(ev.intensity(0, 0), 2.0);
    EXPECT_THROW(ev.bpeak(1), FatalError); // W = 1 has lane 0 only
}

TEST(Evaluator, EvalCountCountsBothPaths)
{
    SocSpec soc = threeIp();
    Usecase u("u", {IpWork{0.5, 4.0}, IpWork{0.3, 16.0},
                    IpWork{0.2, 1.0}});
    // run() counts its active lanes at either width; reading a full
    // result and mutating are not evaluations.
    GablesPack<1> ev(soc, u);
    EXPECT_EQ(ev.evalCount(), 0u);
    attainable(ev);
    EXPECT_EQ(ev.evalCount(), 1u);
    GablesResult scratch;
    ev.evaluate(0, scratch);
    evaluate(ev);
    EXPECT_EQ(ev.evalCount(), 2u);
    ev.setBpeak(0, 9e9);
    EXPECT_EQ(ev.evalCount(), 2u);

    GablesPack<kGridWidth> grid(soc, u);
    grid.run(3);
    grid.run();
    EXPECT_EQ(grid.evalCount(), 3u + kGridWidth);
}

} // namespace
} // namespace gables
