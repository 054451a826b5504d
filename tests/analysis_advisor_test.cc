/**
 * @file
 * Tests for the design advisor: it must rediscover the paper's
 * Figure 6 moves on its own.
 */

#include <gtest/gtest.h>

#include "analysis/advisor.h"
#include "soc/catalog.h"
#include "util/logging.h"

namespace gables {
namespace {

const Advice *
findKind(const std::vector<Advice> &advice, AdviceKind kind,
         int ip = -2)
{
    for (const Advice &a : advice) {
        if (a.kind == kind && (ip == -2 || a.ip == ip))
            return &a;
    }
    return nullptr;
}

TEST(Advisor, Figure6bTopMoveIsReuseOrResplit)
{
    // Figure 6b: memory bound at 1.33 Gops/s because of the GPU's
    // poor reuse. The biggest single lever the advisor can find
    // should involve the GPU's intensity.
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    auto advice = Advisor::advise(soc, u);
    ASSERT_FALSE(advice.empty());
    // The two software levers dominate: re-splitting the work away
    // from the low-reuse GPU, or raising the GPU's reuse. Both dwarf
    // anything hardware can do within the 4x scale cap.
    EXPECT_TRUE(advice.front().kind == AdviceKind::Resplit ||
                (advice.front().kind == AdviceKind::RaiseIntensity &&
                 advice.front().ip == 1))
        << advice.front().description;
    EXPECT_GT(advice.front().gain, 5.0);
    const Advice *reuse =
        findKind(advice, AdviceKind::RaiseIntensity, 1);
    ASSERT_NE(reuse, nullptr);
    EXPECT_GT(reuse->gain, 5.0);
}

TEST(Advisor, Figure6cFlagsOverProvisionedBpeak)
{
    // Figure 6c -> 6d: the paper cuts Bpeak from 30 to 20 GB/s "a
    // sufficient" value. With the reuse fix applied, the advisor
    // must flag the slack.
    SocSpec soc = SocCatalog::paperTwoIp().with(Param::bpeak(), 30e9);
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    auto advice = Advisor::advise(soc, u);
    const Advice *shrink = findKind(advice, AdviceKind::ShrinkSlack);
    ASSERT_NE(shrink, nullptr);
    EXPECT_EQ(shrink->ip, -1); // chip-level Bpeak
    EXPECT_NEAR(shrink->after, 20e9, 1e6);
    EXPECT_DOUBLE_EQ(shrink->gain, 1.0);
}

TEST(Advisor, UnnamedIpSlackNamesTheIpByLabel)
{
    // An inline SoC may leave an IP unnamed; the link-slack text must
    // still name its subject, by the label every other move uses.
    SocSpec soc("unnamed", 40.0e9, 20.0e9,
                {IpSpec{"CPU", 1.0, 6.0e9}, IpSpec{"", 5.0, 150.0e9}});
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    auto advice = Advisor::advise(soc, u);
    const Advice *slack = findKind(advice, AdviceKind::ShrinkSlack, 1);
    ASSERT_NE(slack, nullptr);
    EXPECT_EQ(slack->description.rfind("IP[1] link of ", 0), 0u)
        << slack->description;
}

TEST(Advisor, BalancedDesignGetsNoBigSingleKnobWin)
{
    // Figure 6d is balanced: no single hardware knob within 4x gives
    // a large gain (every knob alone leaves the others binding;
    // gains stay bounded by the second-binding resource).
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    auto advice = Advisor::advise(soc, u);
    for (const Advice &a : advice) {
        if (a.kind == AdviceKind::ShrinkSlack)
            continue;
        EXPECT_LT(a.gain, 2.0) << a.description;
    }
}

TEST(Advisor, ComputeBoundCaseSuggestsAcceleration)
{
    // All work on the GPU, compute bound: growing A1 is the lever.
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("gpu", 1.0, 8.0, 100.0);
    auto advice = Advisor::advise(soc, u);
    const Advice *accel =
        findKind(advice, AdviceKind::RaiseAcceleration, 1);
    ASSERT_NE(accel, nullptr);
    EXPECT_GT(accel->gain, 1.5);
}

TEST(Advisor, ProposalsAreMinimal)
{
    // The proposed parameter should be just enough: applying it
    // yields the promised performance, and a 20% smaller move gives
    // strictly less.
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    auto advice = Advisor::advise(soc, u);
    const Advice *bpeak = findKind(advice, AdviceKind::RaiseBpeak);
    ASSERT_NE(bpeak, nullptr);
    double promised = bpeak->newAttainable;
    double applied = GablesModel::evaluate(
                         soc.with(Param::bpeak(), bpeak->after), u)
                         .attainable;
    EXPECT_NEAR(applied, promised, promised * 1e-6);
    double smaller = GablesModel::evaluate(
                         soc.with(Param::bpeak(), bpeak->after * 0.8), u)
                         .attainable;
    EXPECT_LT(smaller, promised);
}

TEST(Advisor, SortedByGain)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    auto advice = Advisor::advise(soc, u);
    double prev = 1e300;
    for (const Advice &a : advice) {
        if (a.kind == AdviceKind::ShrinkSlack)
            continue; // appended after the ranked improvements
        EXPECT_LE(a.gain, prev);
        prev = a.gain;
    }
}

TEST(Advisor, ResplitSuggestedWhenSplitIsBad)
{
    // Everything on the slow CPU while a 5x GPU idles: re-splitting
    // is the dominant advice.
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("cpu-only", 0.0, 8.0, 8.0);
    auto advice = Advisor::advise(soc, u);
    const Advice *resplit = findKind(advice, AdviceKind::Resplit);
    ASSERT_NE(resplit, nullptr);
    EXPECT_NEAR(resplit->gain, 4.0, 0.01); // 40 -> 160 Gops/s
}

TEST(Advisor, RespectsMinGainFilter)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    Advisor::Options opts;
    opts.minGain = 1.5; // balanced design: no knob reaches 1.5x
    auto advice = Advisor::advise(soc, u, opts);
    for (const Advice &a : advice)
        EXPECT_EQ(a.kind, AdviceKind::ShrinkSlack) << a.description;
}

TEST(Advisor, InvalidOptionsRejected)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    Advisor::Options opts;
    opts.maxScale = 1.0;
    EXPECT_THROW(Advisor::advise(soc, u, opts), FatalError);
}

TEST(Advisor, KindToString)
{
    EXPECT_EQ(toString(AdviceKind::RaiseBpeak), "raise Bpeak");
    EXPECT_EQ(toString(AdviceKind::Resplit), "re-apportion work");
    EXPECT_EQ(toString(AdviceKind::ShrinkSlack),
              "shrink over-provisioned resource");
}

} // namespace
} // namespace gables
