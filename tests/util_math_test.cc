/**
 * @file
 * Unit tests for util/math_util.h.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/logging.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace gables {
namespace {

TEST(Logspace, EndpointsExactAndMonotone)
{
    auto v = logspace(0.01, 100.0, 9);
    ASSERT_EQ(v.size(), 9u);
    EXPECT_DOUBLE_EQ(v.front(), 0.01);
    EXPECT_DOUBLE_EQ(v.back(), 100.0);
    for (size_t i = 1; i < v.size(); ++i)
        EXPECT_GT(v[i], v[i - 1]);
}

TEST(Logspace, GeometricSpacing)
{
    auto v = logspace(1.0, 16.0, 5);
    EXPECT_NEAR(v[1], 2.0, 1e-9);
    EXPECT_NEAR(v[2], 4.0, 1e-9);
    EXPECT_NEAR(v[3], 8.0, 1e-9);
}

TEST(LogTicks, CoversRange)
{
    auto t = logTicks(0.05, 200.0);
    // 10^-2 .. 10^3 bracket the range.
    EXPECT_GE(t.size(), 4u);
    EXPECT_LE(t.front(), 0.05);
    EXPECT_GE(t.back(), 200.0);
}

TEST(Clamp, Basics)
{
    EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
}

/** sortNonNegative() must leave exactly std::sort's bit patterns. */
void
expectSortsLikeStdSort(std::vector<double> values)
{
    std::vector<double> want = values;
    std::sort(want.begin(), want.end());
    sortNonNegative(values);
    ASSERT_EQ(values.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(std::bit_cast<uint64_t>(values[i]),
                  std::bit_cast<uint64_t>(want[i]))
            << "index " << i;
}

TEST(SortNonNegative, TinyInputs)
{
    expectSortsLikeStdSort({});
    expectSortsLikeStdSort({3.5});
    expectSortsLikeStdSort({2.0, 1.0});
    expectSortsLikeStdSort({1.0, 2.0});
}

TEST(SortNonNegative, MillionLogUniformValues)
{
    Rng rng(5);
    LogUniform draw(1e6, 1e12);
    std::vector<double> values(1000000);
    for (double &v : values)
        v = draw(rng);
    expectSortsLikeStdSort(values);
}

TEST(SortNonNegative, HeavyDuplicates)
{
    Rng rng(9);
    std::vector<double> values(200000);
    for (double &v : values)
        v = static_cast<double>(rng.uniformInt(0, 40)) * 0.25;
    expectSortsLikeStdSort(values);
}

TEST(SortNonNegative, AllEqualSkipsEveryPass)
{
    expectSortsLikeStdSort(std::vector<double>(1000, 160e9));
    expectSortsLikeStdSort(std::vector<double>(1000, 0.0));
}

/**
 * Values a few ulps apart differ only in their low digits, so the
 * high passes are skipped: one pass leaves the result in the scratch
 * buffer (copied back), two passes end in place.
 */
TEST(SortNonNegative, SkippedPassesOfEitherParity)
{
    for (uint64_t span : {1000ull, 100000ull}) {
        Rng rng(13);
        std::vector<double> values;
        for (int i = 0; i < 5000; ++i)
            values.push_back(std::bit_cast<double>(
                std::bit_cast<uint64_t>(1.0) +
                static_cast<uint64_t>(rng.uniformInt(0, span))));
        expectSortsLikeStdSort(values);
    }
}

TEST(SortNonNegative, ZeroSubnormalsAndExtremes)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double tiny = std::numeric_limits<double>::denorm_min();
    std::vector<double> values = {inf,     DBL_MAX, 1.0,  tiny * 3,
                                  0.0,     DBL_MIN, tiny, DBL_MAX,
                                  1e-310,  0.0,     inf,  2.5};
    Rng rng(11);
    for (int i = 0; i < 5000; ++i)
        values.push_back(rng.uniform() * DBL_MIN); // mostly subnormal
    expectSortsLikeStdSort(values);
}

TEST(SortNonNegative, RejectsNegativeMinusZeroAndNaN)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double bad : {-1.0, -0.0, nan, -nan,
                       -std::numeric_limits<double>::infinity()}) {
        std::vector<double> values = {1.0, 2.0, bad, 3.0};
        EXPECT_THROW(sortNonNegative(values), FatalError) << bad;
        std::vector<double> alone = {bad};
        EXPECT_THROW(sortNonNegative(alone), FatalError) << bad;
    }
}

} // namespace
} // namespace gables
