/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/rng.h"

namespace gables {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff = any_diff || (a.next() != b.next());
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, LogUniformWithinRange)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.logUniform(0.01, 100.0);
        EXPECT_GE(v, 0.01);
        EXPECT_LE(v, 100.0);
    }
}

TEST(Rng, LogUniformMedianNearGeometricMean)
{
    Rng rng(17);
    int below = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (rng.logUniform(0.01, 100.0) < 1.0)
            ++below;
    }
    // Geometric mean of [0.01, 100] is 1; about half should fall below.
    EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.02);
}

/**
 * A hoisted sampler draws the same bits as the per-call form, and
 * both the same bits as the formula written out with per-draw logs.
 */
TEST(Rng, LogUniformSamplerMatchesLogUniformBitwise)
{
    const std::pair<double, double> ranges[] = {
        {0.01, 100.0}, {1.0 / 1.5, 1.5}, {0.125, 8.0}, {1e-300, 1e300},
        {2e9, 50e9}, {1.0, 1.0 + 1e-12}};
    for (auto [lo, hi] : ranges) {
        Rng a(31);
        Rng b(31);
        Rng c(31);
        LogUniform draw(lo, hi);
        for (int i = 0; i < 100000; ++i) {
            uint64_t hoisted = std::bit_cast<uint64_t>(draw(a));
            ASSERT_EQ(hoisted,
                      std::bit_cast<uint64_t>(b.logUniform(lo, hi)))
                << "range [" << lo << ", " << hi << ") draw " << i;
            ASSERT_EQ(hoisted,
                      std::bit_cast<uint64_t>(std::exp(
                          c.uniform(std::log(lo), std::log(hi)))))
                << "range [" << lo << ", " << hi << ") draw " << i;
        }
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(19);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(23);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Rng, SimplexSumsToOne)
{
    Rng rng(29);
    for (size_t n : {1u, 2u, 5u, 16u}) {
        auto v = rng.simplex(n);
        ASSERT_EQ(v.size(), n);
        double sum = 0.0;
        for (double x : v) {
            EXPECT_GE(x, 0.0);
            sum += x;
        }
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

} // namespace
} // namespace gables
