/**
 * @file
 * Tests for the LogCA baseline.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/logca.h"
#include "util/logging.h"

namespace gables {
namespace {

LogCAModel::Params
typicalDsp()
{
    // A Hexagon-like offload: 10 us dispatch overhead, 1 us/item
    // DMA, 0.1 ms/item host compute, 8x acceleration (the paper's
    // Hexagon-vs-CPU figure), linear work.
    LogCAModel::Params p;
    p.overhead = 10e-6;
    p.latency = 1e-6;
    p.computePerItem = 100e-6;
    p.acceleration = 8.0;
    p.beta = 1.0;
    p.eta = 1.0;
    return p;
}

TEST(LogCA, TimesFollowDefinition)
{
    LogCAModel m(typicalDsp());
    double g = 100.0;
    EXPECT_DOUBLE_EQ(m.hostTime(g), 100e-6 * g);
    EXPECT_DOUBLE_EQ(m.accelTime(g),
                     10e-6 + 1e-6 * g + 100e-6 * g / 8.0);
}

TEST(LogCA, SmallOffloadsLose)
{
    LogCAModel m(typicalDsp());
    // One item: 100 us on the host vs 10 + 1 + 12.5 us offloaded —
    // already a win here; shrink the item to make overhead dominate.
    LogCAModel::Params tiny = typicalDsp();
    tiny.computePerItem = 5e-6;
    LogCAModel m2(tiny);
    EXPECT_LT(m2.speedup(1.0), 1.0);
    EXPECT_GT(m2.speedup(1e6), 1.0);
}

TEST(LogCA, SpeedupMonotoneInGranularity)
{
    LogCAModel m(typicalDsp());
    double prev = 0.0;
    for (double g : {1.0, 10.0, 100.0, 1e4, 1e6}) {
        double s = m.speedup(g);
        EXPECT_GE(s, prev);
        prev = s;
    }
}

TEST(LogCA, AsymptoteWithFixedLatencyIsA)
{
    LogCAModel::Params p = typicalDsp();
    p.eta = 0.0; // fixed-size descriptor
    LogCAModel m(p);
    EXPECT_DOUBLE_EQ(m.asymptoticSpeedup(), 8.0);
    EXPECT_NEAR(m.speedup(1e9), 8.0, 1e-3);
}

TEST(LogCA, ProportionalTransferCapsTheWin)
{
    // eta = 1, beta = 1: transfer scales with work, so the win caps
    // at C / (L + C/A) < A — the LogCA analogue of a bandwidth-bound
    // Gables offload.
    LogCAModel m(typicalDsp());
    double cap = 100e-6 / (1e-6 + 100e-6 / 8.0);
    EXPECT_NEAR(m.asymptoticSpeedup(), cap, 1e-12);
    EXPECT_LT(cap, 8.0);
    EXPECT_NEAR(m.speedup(1e12), cap, cap * 1e-3);
}

TEST(LogCA, BreakEvenGranularity)
{
    LogCAModel::Params p = typicalDsp();
    p.computePerItem = 5e-6;
    LogCAModel m(p);
    double g1 = m.breakEvenGranularity();
    ASSERT_TRUE(std::isfinite(g1));
    EXPECT_GT(g1, 0.0);
    EXPECT_NEAR(m.speedup(g1), 1.0, 1e-6);
    EXPECT_LT(m.speedup(g1 * 0.5), 1.0);
    EXPECT_GT(m.speedup(g1 * 2.0), 1.0);
}

TEST(LogCA, BreakEvenZeroWhenAlwaysWins)
{
    LogCAModel::Params p = typicalDsp();
    p.overhead = 0.0;
    p.latency = 0.0;
    LogCAModel m(p);
    EXPECT_DOUBLE_EQ(m.breakEvenGranularity(), 0.0);
}

TEST(LogCA, BreakEvenInfiniteWhenOffloadNeverPays)
{
    // Transfer costs more than the host compute saved.
    LogCAModel::Params p;
    p.latency = 1e-3;
    p.computePerItem = 1e-6;
    p.acceleration = 100.0;
    p.beta = 1.0;
    p.eta = 1.0;
    LogCAModel m(p);
    EXPECT_TRUE(std::isinf(m.breakEvenGranularity()));
}

TEST(LogCA, SuperlinearWorkFavorsOffload)
{
    // beta = 1.5 (e.g. sorting-like): compute outgrows transfer, so
    // the asymptote recovers the full A even with eta = 1.
    LogCAModel::Params p = typicalDsp();
    p.beta = 1.5;
    LogCAModel m(p);
    EXPECT_DOUBLE_EQ(m.asymptoticSpeedup(), 8.0);
}

TEST(LogCA, InvalidParamsRejected)
{
    LogCAModel::Params p = typicalDsp();
    p.computePerItem = 0.0;
    EXPECT_THROW(LogCAModel{p}, FatalError);
    p = typicalDsp();
    p.acceleration = 0.0;
    EXPECT_THROW(LogCAModel{p}, FatalError);
    p = typicalDsp();
    p.eta = 0.5;
    EXPECT_THROW(LogCAModel{p}, FatalError);
    p = typicalDsp();
    p.latency = -1.0;
    EXPECT_THROW(LogCAModel{p}, FatalError);
}

} // namespace
} // namespace gables
