/**
 * @file
 * Oracle tests for util/decimal.h. The integer renderers must print
 * what the std::to_chars/std::from_chars calls they replace print,
 * byte for byte, over more than 8M deterministic values: random bit
 * patterns, log-uniform magnitudes, sweep grids, integers and simple
 * fractions, powers of two and ten with their neighbours, exact ties,
 * rounding carries and the extremes. The exact primitive itself is
 * checked against the exact decimal expansion of its input.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>

#include "util/decimal.h"

namespace gables {
namespace {

/**
 * The JSON number rule as JsonWriter used to run it: "%.12g" through
 * std::to_chars, read back with std::from_chars, and "%.17g" when the
 * read-back is not the value.
 */
std::string
threeCallRule(double v)
{
    char buf[40];
    std::to_chars_result res = std::to_chars(
        buf, buf + sizeof buf, v, std::chars_format::general, 12);
    double back = 0.0;
    std::from_chars(buf, res.ptr, back);
    if (back != v)
        res = std::to_chars(buf, buf + sizeof buf, v,
                            std::chars_format::general, 17);
    return std::string(buf, res.ptr);
}

std::string
general17Oracle(double v)
{
    char buf[40];
    std::to_chars_result res = std::to_chars(
        buf, buf + sizeof buf, v, std::chars_format::general, 17);
    return std::string(buf, res.ptr);
}

/** Runs both general writers against their oracles. */
class OracleCheck
{
  public:
    void
    operator()(double v)
    {
        ++checked;
        char buf[kGeneralChars];
        std::string got(buf, writeRoundTrip(buf, v));
        std::string want = threeCallRule(v);
        if (got != want && ++mismatches <= 5)
            ADD_FAILURE() << "JSON rule for " << general17Oracle(v)
                          << ": got '" << got << "', want '" << want
                          << "'";
        got.assign(buf, writeGeneral17(buf, v));
        want = general17Oracle(v);
        if (got != want && ++mismatches <= 5)
            ADD_FAILURE() << "%.17g: got '" << got << "', want '"
                          << want << "'";
    }

    /** Check @p v and its negation. */
    void
    bothSigns(double v)
    {
        (*this)(v);
        (*this)(-v);
    }

    /** Check @p v and the doubles up to @p ulps steps either side. */
    void
    neighbours(double v, int ulps)
    {
        double w = v;
        for (int i = 0; i < ulps; ++i)
            w = std::nextafter(w, 0.0);
        for (int i = 0; i <= 2 * ulps && std::isfinite(w); ++i) {
            bothSigns(w);
            w = std::nextafter(w, INFINITY);
        }
    }

    size_t checked = 0;
    size_t mismatches = 0;
};

/** The double nearest the decimal @p text. */
double
parse(const std::string &text)
{
    double v = 0.0;
    std::from_chars(text.data(), text.data() + text.size(), v);
    return v;
}

/** A uniform draw from [0, 1) built from the top 53 bits. */
double
unitDraw(std::mt19937_64 &rng)
{
    return static_cast<double>(rng() >> 11) * 0x1p-53;
}

TEST(ScaleDecimal, SplitsSmallCasesExactly)
{
    using Rest = ScaledDecimal::Rest;
    struct Case {
        double v;
        int k;
        uint64_t whole;
        Rest rest;
        uint64_t rounded;
    };
    const Case cases[] = {
        {0.0, 0, 0, Rest::Zero, 0},
        {-0.0, 5, 0, Rest::Zero, 0},
        {1.0, 0, 1, Rest::Zero, 1},
        {2.5, 0, 2, Rest::Half, 2},
        {3.5, 0, 3, Rest::Half, 4},
        {-1.5, 0, 1, Rest::Half, 2},
        {0.125, 2, 12, Rest::Half, 12},
        {0.375, 2, 37, Rest::Half, 38},
        {0.7, 0, 0, Rest::AboveHalf, 1},
        {0.1, 1, 1, Rest::BelowHalf, 1},
        {0.3, 1, 2, Rest::AboveHalf, 3},
        {5e-324, 0, 0, Rest::BelowHalf, 0},
        {DBL_MIN, 18, 0, Rest::BelowHalf, 0},
        {1e-12, 28, 9999999999999999, Rest::AboveHalf,
         10000000000000000},
        {0x1p63, 0, uint64_t{1} << 63, Rest::Zero, uint64_t{1} << 63},
    };
    for (const Case &c : cases) {
        ScaledDecimal s;
        ASSERT_TRUE(scaleDecimal(c.v, c.k, s)) << c.v << " k=" << c.k;
        EXPECT_EQ(s.whole, c.whole) << c.v << " k=" << c.k;
        EXPECT_EQ(s.rest, c.rest) << c.v << " k=" << c.k;
        EXPECT_EQ(s.rounded(), c.rounded) << c.v << " k=" << c.k;
    }
}

TEST(ScaleDecimal, RefusesWhatItCannotHoldExactly)
{
    ScaledDecimal s{7, ScaledDecimal::Rest::Half};
    EXPECT_FALSE(scaleDecimal(1.0, -1, s));
    EXPECT_FALSE(scaleDecimal(1.0, kMaxDecimalScale + 1, s));
    EXPECT_FALSE(scaleDecimal(INFINITY, 0, s));
    EXPECT_FALSE(scaleDecimal(NAN, 0, s));
    // 10^28 and 2^64 are past the 64-bit integer part.
    EXPECT_FALSE(scaleDecimal(1.0, 28, s));
    EXPECT_FALSE(scaleDecimal(0x1p64, 0, s));
    EXPECT_FALSE(scaleDecimal(DBL_MAX, 0, s));
    // A refusal leaves the output alone.
    EXPECT_EQ(s.whole, 7u);
    EXPECT_EQ(s.rest, ScaledDecimal::Rest::Half);
    // The largest double below 2^64 still fits.
    ASSERT_TRUE(scaleDecimal(std::nextafter(0x1p64, 0.0), 0, s));
    EXPECT_EQ(s.whole, 18446744073709549568u);
}

TEST(ScaleDecimal, MatchesTheExactExpansion)
{
    // Every double is a finite decimal; 1074 fraction digits hold any
    // of them exactly, so the split can be read off the text.
    std::mt19937_64 rng(1814);
    size_t compared = 0;
    std::string text(1500, '\0');
    for (int i = 0; i < 20000; ++i) {
        double v = std::ldexp(unitDraw(rng) + 0.5,
                              static_cast<int>(rng() % 140) - 100);
        int k = static_cast<int>(rng() % (kMaxDecimalScale + 1));
        ScaledDecimal s;
        if (!scaleDecimal(v, k, s))
            continue;
        ++compared;
        std::to_chars_result res =
            std::to_chars(text.data(), text.data() + text.size(), v,
                          std::chars_format::fixed, 1074);
        ASSERT_EQ(res.ec, std::errc());
        std::string exact(text.data(), res.ptr);
        size_t point = exact.find('.');
        std::string whole = exact.substr(0, point) +
                            exact.substr(point + 1, k);
        std::string tail = exact.substr(point + 1 + k);
        size_t nonzero = tail.find_first_not_of('0');
        ScaledDecimal::Rest rest = ScaledDecimal::Rest::Zero;
        if (nonzero != std::string::npos) {
            bool only_five = tail[0] == '5' &&
                             tail.find_first_not_of('0', 1) ==
                                 std::string::npos;
            rest = tail[0] < '5' ? ScaledDecimal::Rest::BelowHalf
                   : only_five   ? ScaledDecimal::Rest::Half
                                 : ScaledDecimal::Rest::AboveHalf;
        }
        ASSERT_EQ(std::to_string(s.whole),
                  whole.substr(std::min(whole.find_first_not_of('0'),
                                        whole.size() - 1)))
            << exact << " k=" << k;
        ASSERT_EQ(s.rest, rest) << exact << " k=" << k;
    }
    EXPECT_GT(compared, 10000u);
}

TEST(JsonNumberRule, MatchesTheThreeCallRuleOnRandomBitPatterns)
{
    std::mt19937_64 rng(20190216);
    OracleCheck check;
    while (check.checked < 2000000) {
        double v = std::bit_cast<double>(rng());
        if (std::isfinite(v))
            check(v);
    }
    EXPECT_EQ(check.mismatches, 0u);
}

TEST(JsonNumberRule, MatchesTheThreeCallRuleOnLogUniformValues)
{
    std::mt19937_64 rng(1234567);
    OracleCheck check;
    for (int i = 0; i < 1000000; ++i)
        check.bothSigns(std::pow(10.0, -30.0 + 60.0 * unitDraw(rng)));
    EXPECT_EQ(check.checked, 2000000u);
    EXPECT_EQ(check.mismatches, 0u);
}

TEST(JsonNumberRule, MatchesTheThreeCallRuleOnSweepGrids)
{
    OracleCheck check;
    // The grid a 1M-point sweep writes, then every small grid.
    for (long i = 0; i < 1000000; ++i)
        check(static_cast<double>(i) / 999999);
    for (long n = 2; n <= 1000; ++n)
        for (long i = 0; i < n; ++i)
            check(static_cast<double>(i) / (n - 1));
    EXPECT_EQ(check.checked, 1000000u + 500499u);
    EXPECT_EQ(check.mismatches, 0u);
}

TEST(JsonNumberRule, MatchesTheThreeCallRuleOnIntegersAndFractions)
{
    OracleCheck check;
    for (long i = 0; i < 600000; ++i) {
        check(static_cast<double>(i));
        check(static_cast<double>(i) / 8);
        check(static_cast<double>(i) * 1e-3);
    }
    // Integers of 13 to 17 digits.
    for (long i = 0; i < 100000; ++i) {
        check(1e12 + static_cast<double>(i) * 7919);
        check(-(1e16 + static_cast<double>(i) * 104729));
    }
    EXPECT_EQ(check.checked, 2000000u);
    EXPECT_EQ(check.mismatches, 0u);
}

TEST(JsonNumberRule, MatchesTheThreeCallRuleOnPowersAndNeighbours)
{
    OracleCheck check;
    for (int e = -1074; e <= 1023; ++e)
        check.neighbours(std::ldexp(1.0, e), 2);
    for (int k = -323; k <= 308; ++k)
        check.neighbours(parse("1e" + std::to_string(k)), 2);
    EXPECT_GT(check.checked, 27000u);
    EXPECT_EQ(check.mismatches, 0u);
}

TEST(JsonNumberRule, MatchesTheThreeCallRuleOnTiesAndCarries)
{
    OracleCheck check;
    // 2^50 + j/4 has 16 integer digits, so its 17th digit is the
    // first decimal: .25 and .75 are exact ties there.
    for (long j = 0; j < 1000000; ++j)
        check(0x1p50 + static_cast<double>(j) / 4);
    // 13-digit integers ending in 5 are exact ties at 12 digits.
    for (long j = 0; j < 100000; ++j)
        check(1e12 + static_cast<double>(j) * 10 + 5);
    // Values whose 12- or 17-digit rounding carries into a new
    // leading digit, at every decimal exponent.
    for (int k = -323; k <= 308; ++k) {
        std::string e = "e" + std::to_string(k);
        check.neighbours(parse("9.9999999999995" + e), 3);
        check.neighbours(parse("9.99999999999949999" + e), 3);
        check.neighbours(parse("9.99999999999999995" + e), 3);
    }
    EXPECT_GT(check.checked, 1100000u);
    EXPECT_EQ(check.mismatches, 0u);
}

TEST(JsonNumberRule, MatchesTheThreeCallRuleOnTheExtremes)
{
    OracleCheck check;
    for (double v : {0.0, DBL_MIN, std::nextafter(DBL_MIN, 0.0),
                     5e-324, DBL_MAX, 1e-11, 1e17, 0x1p-39, 0x1p57})
        check.neighbours(v, 2);
    EXPECT_EQ(check.mismatches, 0u);

    char buf[kGeneralChars];
    auto json = [&buf](double v) {
        return std::string(buf, writeRoundTrip(buf, v));
    };
    EXPECT_EQ(json(0.0), "0");
    EXPECT_EQ(json(-0.0), "-0");
    EXPECT_EQ(json(5e-324), "4.94065645841e-324");
    EXPECT_EQ(json(-DBL_MAX), "-1.7976931348623157e+308");
    EXPECT_EQ(json(0.1), "0.1");
    EXPECT_EQ(json(1.0 / 3.0), "0.33333333333333331");
    EXPECT_EQ(json(1e17), "1e+17");
    EXPECT_EQ(json(123456789012.5), "123456789012.5");
    EXPECT_EQ(json(123456789012.0), "123456789012");
    EXPECT_EQ(json(1e-5), "1e-05");
}

TEST(JsonNumberRule, General17PrintsTheNonFiniteValuesLikePrintf)
{
    char buf[kGeneralChars];
    EXPECT_EQ(std::string(buf, writeGeneral17(buf, INFINITY)), "inf");
    EXPECT_EQ(std::string(buf, writeGeneral17(buf, -INFINITY)), "-inf");
    EXPECT_EQ(std::string(buf, writeGeneral17(buf, NAN)), "nan");
    EXPECT_EQ(std::string(buf, writeGeneral17(buf, 0.1)),
              "0.10000000000000001");
}

} // namespace
} // namespace gables
