/**
 * @file
 * Unit tests for GablesPack: bit-identity of attainable() and
 * bottleneckIp() with the GablesModel::evaluate() oracle, one table
 * of Param rows driving set(), setLanes() and get() at W = 1 and
 * W = kGridWidth against a from-scratch rebuild and through every
 * rejected value (which building the pair rejects with the same rule
 * text), the one pair rule, inactive and infinite-intensity IPs, and
 * the evalCount telemetry hook.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/explorer.h"
#include "core/evaluator.h"
#include "core/gables.h"
#include "core/serialized.h"
#include "soc/catalog.h"
#include "soc/config.h"
#include "util/logging.h"

namespace gables {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** Lane @p w of the run @p pack reports the oracle's attainable
 * performance (bit for bit) and bottleneck IP. */
template <size_t W>
void
expectLaneMatches(const GablesPack<W> &pack, size_t w,
                  const GablesResult &want)
{
    EXPECT_EQ(bits(pack.attainable(w)), bits(want.attainable))
        << "lane " << w;
    EXPECT_EQ(pack.bottleneckIp(w), want.bottleneckIp) << "lane " << w;
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
        ev.run();
        expectLaneMatches(ev, 0, GablesModel::evaluate(c.soc, c.usecase));
    }
}

/** The usecase the Param table is written against. */
Usecase
threeIpWork()
{
    return Usecase("u", {IpWork{0.5, 4.0}, IpWork{0.3, 16.0},
                         IpWork{0.2, 1.0}});
}

/**
 * One row of the Param table, against threeIp()/threeIpWork(): an
 * input, the value lane w takes (value + w * step), the values the
 * pack must reject, and the message it rejects them with.
 */
struct ParamCase {
    Param param;
    double value;
    double step;
    std::vector<double> invalid;
    std::string message;
};

const std::vector<ParamCase> &
paramCases()
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double huge = std::numeric_limits<double>::max();
    // fi moves alone only within Usecase's sum-to-one tolerance
    // (1e-9), so its lanes step by 2^-34 from 0.2 + 2^-32.
    static const std::vector<ParamCase> cases = {
        {Param::ppeak(), 17e9, 1e9, {0.0, -1.0, kInf, -kInf, nan},
         "evaluator: Ppeak must be positive and finite"},
        // A1 = 20: a finite Ppeak whose A1 * Ppeak overflows.
        {Param::ppeak(), 17e9, 1e9, {1e307, huge},
         "evaluator: IP[1] peak Ai * Ppeak must be finite"},
        {Param::bpeak(), 7e9, 1e9, {0.0, -2e9, kInf, -kInf, nan},
         "evaluator: Bpeak must be positive and finite"},
        // A0 = 1 is checked first, so an A0 that is also not positive
        // and finite breaks that rule.
        {Param::acceleration(0), 1.0, 0.0, {2.0, 0.5, 0.0, -1.0, kInf, nan},
         "evaluator: IP[0] acceleration A0 must be 1 (paper Section "
         "III-D)"},
        {Param::acceleration(1), 3.5, 0.5, {0.0, -3.0, kInf, nan},
         "evaluator: IP[1] acceleration must be positive and finite"},
        {Param::acceleration(2), 0.25, 2.0, {0.0, -kInf},
         "evaluator: IP[2] acceleration must be positive and finite"},
        {Param::acceleration(2), 0.25, 2.0, {1e300, huge},
         "evaluator: IP[2] peak Ai * Ppeak must be finite"},
        {Param::ipBandwidth(0), 3e9, 1e9, {0.0, -1.0, kInf, nan},
         "evaluator: IP[0] bandwidth must be positive and finite"},
        {Param::ipBandwidth(2), 11e9, 1e9, {0.0, -kInf},
         "evaluator: IP[2] bandwidth must be positive and finite"},
        {Param::fraction(2), 0.2 + 0x1p-32, 0x1p-34,
         {-0.1, -1e-300, kInf, -kInf, nan},
         "evaluator: fraction f[2] must be in [0, 1]"},
        {Param::intensity(0), 0.125, 0.5, {0.0, -1.0, -kInf, nan},
         "evaluator: intensity I[0] must be > 0 where work is assigned"},
        {Param::intensity(1), kInf, 0.0, {0.0},
         "evaluator: intensity I[1] must be > 0 where work is assigned"},
    };
    return cases;
}

/** The pair with input @p p set to @p v, rebuilt from scratch. */
std::pair<SocSpec, Usecase>
rebuilt(const SocSpec &soc, const Usecase &u, Param p, double v)
{
    if (p.kind == Param::Kind::Fraction)
        return {soc, u.withWork(p.ip, IpWork{v, u.intensity(p.ip)})};
    if (p.kind == Param::Kind::Intensity)
        return {soc, u.withWork(p.ip, IpWork{u.fraction(p.ip), v})};
    return {soc.with(p, v), u};
}

/** @return The message of the FatalError @p fn throws, or "". */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

/**
 * The message building the pair with a value the pack rejects with
 * @p packMessage must give: the same rule text under the pair's
 * owner ("SoC 'three': " or "usecase 'u': " for "evaluator: "), the
 * peak rule also quoting the IP's name.
 */
std::string
pairMessage(const SocSpec &soc, const Usecase &u, Param p,
            const std::string &packMessage)
{
    std::string rule = packMessage.substr(std::string("evaluator: ").size());
    const size_t peak = rule.find("] peak Ai * Ppeak");
    if (peak != std::string::npos) {
        const size_t ip = std::stoul(rule.substr(3, peak - 3));
        rule.insert(peak + 2, "'" + soc.ip(ip).name + "' ");
    }
    const bool software = p.kind == Param::Kind::Fraction ||
                          p.kind == Param::Kind::Intensity;
    return (software ? "usecase '" + u.name() : "SoC '" + soc.name()) +
           "': " + rule;
}

/** Every lane of @p pack, run, matches the unmutated pair. */
template <size_t W>
void
expectUnchanged(GablesPack<W> &pack, const SocSpec &soc, const Usecase &u)
{
    pack.run();
    GablesResult want = GablesModel::evaluate(soc, u);
    for (size_t w = 0; w < W; ++w)
        expectLaneMatches(pack, w, want);
}

/** Each row through set() and through setLanes(): every lane matches
 * a rebuild of the pair with its value. */
template <size_t W>
void
expectEachParamMatchesRebuild()
{
    const SocSpec soc = threeIp();
    const Usecase u = threeIpWork();
    for (const ParamCase &c : paramCases()) {
        SCOPED_TRACE(c.param.name() + " W=" + std::to_string(W));
        double values[W];
        for (size_t w = 0; w < W; ++w)
            values[w] = c.value + static_cast<double>(w) * c.step;
        GablesPack<W> one(soc, u);
        GablesPack<W> bulk(soc, u);
        for (size_t w = 0; w < W; ++w)
            one.set(w, c.param, values[w]);
        bulk.setLanes(c.param, values, W);
        one.run();
        bulk.run();
        for (size_t w = 0; w < W; ++w) {
            auto [soc_w, u_w] = rebuilt(soc, u, c.param, values[w]);
            GablesResult want = GablesModel::evaluate(soc_w, u_w);
            expectLaneMatches(one, w, want);
            expectLaneMatches(bulk, w, want);
        }
        // Restoring the base value reproduces the base point exactly.
        for (size_t w = 0; w < W; ++w)
            one.set(w, c.param, c.param.read(soc, u));
        expectUnchanged(one, soc, u);
    }
}

/** get() reads the compiled pair, then each lane's own value. */
template <size_t W>
void
expectGetReadsBack()
{
    const SocSpec soc = threeIp();
    const Usecase u = threeIpWork();
    GablesPack<W> pack(soc, u);
    EXPECT_EQ(pack.numIps(), 3u);
    for (const ParamCase &c : paramCases()) {
        SCOPED_TRACE(c.param.name() + " W=" + std::to_string(W));
        for (size_t w = 0; w < W; ++w)
            EXPECT_EQ(bits(pack.get(w, c.param)),
                      bits(c.param.read(soc, u)));
    }
    for (const ParamCase &c : paramCases()) {
        SCOPED_TRACE(c.param.name() + " W=" + std::to_string(W));
        GablesPack<W> one(soc, u);
        for (size_t w = 0; w < W; ++w)
            one.set(w, c.param, c.value + static_cast<double>(w) * c.step);
        for (size_t w = 0; w < W; ++w)
            EXPECT_EQ(bits(one.get(w, c.param)),
                      bits(c.value + static_cast<double>(w) * c.step));
    }
    EXPECT_EQ(fatalMessage([&] { pack.get(W, Param::bpeak()); }),
              "evaluator: pack lane " + std::to_string(W) +
                  " out of range (W=" + std::to_string(W) + ")");
    EXPECT_EQ(fatalMessage([&] { pack.get(0, Param::intensity(3)); }),
              "evaluator: IP index 3 out of range (N=3)");
}

/** Each row's invalid values, and out-of-range lanes, IPs and counts,
 * throw with the pack's message through set() and setLanes(), and
 * leave every lane as it was. Each invalid value also fails a rebuild
 * of the pair, with the same rule text: the rules are stated once. */
template <size_t W>
void
expectInvalidRejected()
{
    const SocSpec soc = threeIp();
    const Usecase u = threeIpWork();
    EXPECT_THROW(GablesPack<W>(soc, Usecase::twoIp("two", 0.5, 1.0, 1.0)),
                 FatalError);
    GablesPack<W> pack(soc, u);
    for (const ParamCase &c : paramCases()) {
        SCOPED_TRACE(c.param.name() + " W=" + std::to_string(W));
        for (double bad : c.invalid) {
            SCOPED_TRACE(bad);
            for (size_t w = 0; w < W; ++w)
                EXPECT_EQ(fatalMessage([&] { pack.set(w, c.param, bad); }),
                          c.message);
            // The bad value in the last lane: nothing is stored.
            double values[W];
            for (size_t w = 0; w < W; ++w)
                values[w] = c.value;
            values[W - 1] = bad;
            EXPECT_EQ(
                fatalMessage([&] { pack.setLanes(c.param, values, W); }),
                c.message);
            EXPECT_EQ(fatalMessage([&] { rebuilt(soc, u, c.param, bad); }),
                      pairMessage(soc, u, c.param, c.message));
        }
        const std::string lane_msg =
            "evaluator: pack lane " + std::to_string(W) +
            " out of range (W=" + std::to_string(W) + ")";
        EXPECT_EQ(fatalMessage([&] { pack.set(W, c.param, c.value); }),
                  lane_msg);
        double values[W + 1];
        for (double &v : values)
            v = c.value;
        if (c.param.perIp()) {
            const Param past{c.param.kind, 3};
            const std::string ip_msg =
                "evaluator: IP index 3 out of range (N=3)";
            EXPECT_EQ(fatalMessage([&] { pack.set(0, past, c.value); }),
                      ip_msg);
            EXPECT_EQ(fatalMessage([&] { pack.setLanes(past, values, 1); }),
                      ip_msg);
        }
        EXPECT_EQ(
            fatalMessage([&] { pack.setLanes(c.param, values, W + 1); }),
            "evaluator: bulk lane count " + std::to_string(W + 1) +
                " exceeds pack width W=" + std::to_string(W));
    }
    EXPECT_THROW(pack.setWork(0, 9, 0.5, 1.0), FatalError);
    expectUnchanged(pack, soc, u);
    for (const ParamCase &c : paramCases())
        for (size_t w = 0; w < W; ++w)
            EXPECT_EQ(bits(pack.get(w, c.param)),
                      bits(c.param.read(soc, u)));
}

TEST(Evaluator, EachMutatorMatchesRebuild)
{
    expectEachParamMatchesRebuild<1>();
    expectEachParamMatchesRebuild<kGridWidth>();
}

TEST(Evaluator, InvalidInputsRejected)
{
    expectInvalidRejected<1>();
    expectInvalidRejected<kGridWidth>();
}

TEST(Evaluator, GettersReflectMutations)
{
    expectGetReadsBack<1>();
    expectGetReadsBack<kGridWidth>();
}

TEST(Param, NamesFollowTableII)
{
    EXPECT_EQ(Param::ppeak().name(), "Ppeak");
    EXPECT_EQ(Param::bpeak().name(), "Bpeak");
    EXPECT_EQ(Param::acceleration(2).name(), "A[2]");
    EXPECT_EQ(Param::ipBandwidth(0).name(), "B[0]");
    EXPECT_EQ(Param::fraction(1).name(), "f[1]");
    EXPECT_EQ(Param::intensity(0).name(), "I[0]");
    EXPECT_EQ(Param::intensity(12).name(), "I[12]");
    EXPECT_FALSE(Param::ppeak().perIp());
    EXPECT_FALSE(Param::bpeak().perIp());
    EXPECT_TRUE(Param::acceleration(0).perIp());
    EXPECT_TRUE(Param::fraction(0).perIp());
    EXPECT_EQ(Param::ipBandwidth(1), Param::ipBandwidth(1));
    EXPECT_NE(Param::ipBandwidth(1), Param::ipBandwidth(2));
    EXPECT_NE(Param::ipBandwidth(1), Param::acceleration(1));
}

TEST(Param, ReadsThePairAndSocSpecWithRejectsUsecaseInputs)
{
    const SocSpec soc = threeIp();
    const Usecase u = threeIpWork();
    EXPECT_EQ(Param::ppeak().read(soc, u), 10e9);
    EXPECT_EQ(Param::bpeak().read(soc, u), 20e9);
    EXPECT_EQ(Param::acceleration(1).read(soc, u), 20.0);
    EXPECT_EQ(Param::ipBandwidth(2).read(soc, u), 5e9);
    EXPECT_EQ(Param::fraction(0).read(soc, u), 0.5);
    EXPECT_EQ(Param::intensity(1).read(soc, u), 16.0);
    EXPECT_THROW(Param::intensity(3).read(soc, u), FatalError);
    EXPECT_THROW(Param::acceleration(3).read(soc, u), FatalError);

    EXPECT_EQ(soc.with(Param::ppeak(), 3e9).ppeak(), 3e9);
    EXPECT_THROW(soc.with(Param::fraction(0), 0.5), FatalError);
    EXPECT_THROW(soc.with(Param::intensity(0), 2.0), FatalError);
    EXPECT_THROW(soc.with(Param::ipBandwidth(3), 1e9), FatalError);
    EXPECT_THROW(soc.with(Param::acceleration(0), 2.0), FatalError);
    EXPECT_THROW(soc.with(Param::bpeak(), 0.0), FatalError);
}

TEST(Param, PairRuleHasOneTextEverywhere)
{
    const SocSpec soc = SocCatalog::paperTwoIp();
    const Usecase three = threeIpWork();
    const std::string want = "usecase 'u' has 3 IP entries but SoC '" +
                             soc.name() + "' has 2 IPs";
    EXPECT_EQ(fatalMessage([&] { checkPair(soc, three); }), want);
    EXPECT_EQ(fatalMessage([&] { GablesModel::evaluate(soc, three); }),
              want);
    EXPECT_EQ(fatalMessage([&] { GablesPack<1>(soc, three); }), want);
    EXPECT_EQ(
        fatalMessage([&] { GablesPack<kGridWidth>(soc, three); }), want);
    EXPECT_EQ(fatalMessage([&] { SerializedModel::evaluate(soc, three); }),
              want);
    EXPECT_EQ(fatalMessage([&] { DesignExplorer(soc, {three}, {}); }),
              want);
    EXPECT_EQ(fatalMessage([&] { formatSocConfig(soc, {three}); }), want);
    EXPECT_NO_THROW(checkPair(threeIp(), three));
}

TEST(Evaluator, InactiveAndInfiniteLanes)
{
    SocSpec soc = threeIp();
    Usecase u("edge", {IpWork{0.0, 1.0}, IpWork{0.5, kInf},
                       IpWork{0.5, 2.0}});
    GablesPack<1> ev(soc, u);
    ev.run();
    expectLaneMatches(ev, 0, GablesModel::evaluate(soc, u));

    // Activating the idle lane and idling an active one through the
    // mutators still matches a rebuild.
    ev.setWork(0, 0, 0.5, 3.0);
    ev.setWork(0, 1, 0.0, 1.0);
    ev.run();
    expectLaneMatches(
        ev, 0,
        GablesModel::evaluate(
            soc, Usecase("e2", {IpWork{0.5, 3.0}, IpWork{0.0, 1.0},
                                IpWork{0.5, 2.0}})));
}

TEST(Evaluator, EvalCountCountsBothPaths)
{
    SocSpec soc = threeIp();
    Usecase u("u", {IpWork{0.5, 4.0}, IpWork{0.3, 16.0},
                    IpWork{0.2, 1.0}});
    // run() counts its active lanes at either width; reading a lane
    // and mutating are not evaluations.
    GablesPack<1> ev(soc, u);
    EXPECT_EQ(ev.evalCount(), 0u);
    ev.run();
    EXPECT_EQ(ev.evalCount(), 1u);
    ev.attainable(0);
    ev.bottleneckIp(0);
    ev.run();
    EXPECT_EQ(ev.evalCount(), 2u);
    ev.set(0, Param::bpeak(), 9e9);
    EXPECT_EQ(ev.evalCount(), 2u);

    GablesPack<kGridWidth> grid(soc, u);
    grid.run(3);
    grid.run();
    EXPECT_EQ(grid.evalCount(), 3u + kGridWidth);
}

} // namespace
} // namespace gables
