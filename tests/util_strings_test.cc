/**
 * @file
 * Unit tests for util/strings.h.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "util/logging.h"
#include "util/strings.h"

namespace gables {
namespace {

TEST(Trim, StripsBothEnds)
{
    EXPECT_EQ(trim("  hello  "), "hello");
    EXPECT_EQ(trim("\t\nhi\r "), "hi");
}

TEST(Trim, EmptyAndAllWhitespace)
{
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   \t"), "");
}

TEST(Trim, NoWhitespaceUnchanged)
{
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(Trim, InternalWhitespaceKept)
{
    EXPECT_EQ(trim(" a b "), "a b");
}

TEST(ToLower, MixedCase)
{
    EXPECT_EQ(toLower("GaBlEs"), "gables");
    EXPECT_EQ(toLower("GB/s"), "gb/s");
}

TEST(Split, BasicFields)
{
    auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Split, EmptyFieldsKept)
{
    auto parts = split("a,,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
}

TEST(Split, TrailingDelimiterYieldsEmptyField)
{
    auto parts = split("a,b,", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[2], "");
}

TEST(Split, EmptyStringYieldsOneEmptyField)
{
    auto parts = split("", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "");
}

TEST(Join, RoundTripsSplit)
{
    std::vector<std::string> parts = {"x", "y", "z"};
    EXPECT_EQ(join(parts, ","), "x,y,z");
    EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Join, SingleAndEmpty)
{
    EXPECT_EQ(join({"only"}, ", "), "only");
    EXPECT_EQ(join({}, ","), "");
}

TEST(StartsWith, Basic)
{
    EXPECT_TRUE(startsWith("gables-model", "gables"));
    EXPECT_FALSE(startsWith("gables", "gables-model"));
    EXPECT_TRUE(startsWith("abc", ""));
}

TEST(FormatDouble, TrimsTrailingZeros)
{
    EXPECT_EQ(formatDouble(1.5), "1.5");
    EXPECT_EQ(formatDouble(2.0), "2");
    EXPECT_EQ(formatDouble(0.25, 4), "0.25");
}

TEST(FormatDouble, RespectsPrecision)
{
    EXPECT_EQ(formatDouble(1.0 / 3.0, 3), "0.333");
    EXPECT_EQ(formatDouble(0.13278, 5), "0.13278");
}

TEST(FormatDouble, SpecialValues)
{
    EXPECT_EQ(formatDouble(std::numeric_limits<double>::quiet_NaN()),
              "nan");
    EXPECT_EQ(formatDouble(std::numeric_limits<double>::infinity()),
              "inf");
    EXPECT_EQ(formatDouble(-std::numeric_limits<double>::infinity()),
              "-inf");
}

TEST(FormatDouble, NegativeValues)
{
    EXPECT_EQ(formatDouble(-1.25), "-1.25");
    EXPECT_EQ(formatDouble(-2.0), "-2");
}

/**
 * The reference formatDouble() is checked against: a fixed-notation
 * stream in the classic locale with its trailing zeros trimmed.
 */
std::string
streamFormatDouble(double value, int precision)
{
    if (std::isnan(value))
        return "nan";
    if (std::isinf(value))
        return value > 0 ? "inf" : "-inf";
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(precision);
    oss << value;
    std::string s = oss.str();
    if (s.find('.') != std::string::npos) {
        size_t last = s.find_last_not_of('0');
        if (s[last] == '.')
            --last;
        s.erase(last + 1);
    }
    return s;
}

double
fromBits(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

TEST(FormatDouble, EdgeCasesMatchTheStream)
{
    const double edges[] = {0.0,     -0.0,     0.125,    -0.125,
                            2.5,     0.5,      1e-7,     -1e-7,
                            DBL_MIN, -DBL_MIN, 5e-324,   -5e-324,
                            1e300,   -1e300,   DBL_MAX,  -DBL_MAX};
    for (double v : edges) {
        for (int p = 0; p <= 18; ++p)
            EXPECT_EQ(formatDouble(v, p), streamFormatDouble(v, p))
                << v << " at precision " << p;
        // A negative precision means 6, as in printf.
        EXPECT_EQ(formatDouble(v, -1), streamFormatDouble(v, 6)) << v;
    }
    // The integer path holds |v|·10^p below 2^64 - 1; the digits must
    // not change on either side of that edge.
    for (int p = 0; p <= 18; ++p) {
        double v = std::ldexp(1.0, 64) / std::pow(10.0, p);
        for (int i = 0; i < 8; ++i)
            v = std::nextafter(v, 0.0);
        for (int i = 0; i < 16; ++i, v = std::nextafter(v, INFINITY)) {
            EXPECT_EQ(formatDouble(v, p), streamFormatDouble(v, p))
                << v << " at precision " << p;
            EXPECT_EQ(formatDouble(-v, p), streamFormatDouble(-v, p))
                << -v << " at precision " << p;
        }
    }
    // Exact binary halfway cases round to even, as printf does.
    EXPECT_EQ(formatDouble(0.125, 2), "0.12");
    EXPECT_EQ(formatDouble(0.375, 2), "0.38");
    EXPECT_EQ(formatDouble(-1e-9, 4), "-0");
    EXPECT_EQ(formatDouble(-DBL_MAX, kFormatDoubleMaxPrecision),
              streamFormatDouble(-DBL_MAX, kFormatDoubleMaxPrecision));
    EXPECT_THROW(formatDouble(1.0, kFormatDoubleMaxPrecision + 1),
                 FatalError);
}

TEST(FormatDouble, MatchesTheStreamOnAMillionSeededDoubles)
{
    std::mt19937_64 rng(20190216);
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    size_t mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
        // Precisions -1 (which means 6) to 18.
        const int p = i % 20 - 1;
        double v = 0.0;
        switch (i / 20 % 100) {
          case 0: // around +-1e300: 300-digit integer parts
            v = unit(rng) * 1e300;
            break;
          case 1: // any finite bit pattern
            do
                v = fromBits(rng());
            while (!std::isfinite(v));
            break;
          default:
            switch (i / 20 % 5) {
              case 0: // rounds to zero at this precision, either sign
                v = unit(rng) * std::pow(10.0, -p - 1);
                break;
              case 1: { // exact binary halfway: (2j+1) / 2^(p+1)
                double j = static_cast<double>(rng() % 4096);
                v = (2.0 * j + 1.0) / std::ldexp(1.0, p + 1) *
                    (rng() % 2 ? -1.0 : 1.0);
                break;
              }
              case 2: // subnormals
                v = fromBits(rng() & ((uint64_t{1} << 52) - 1)) *
                    (rng() % 2 ? -1.0 : 1.0);
                break;
              default: // ordinary magnitudes, both signs
                v = unit(rng) * std::pow(10.0, rng() % 13);
            }
        }
        std::string want = streamFormatDouble(v, p);
        std::string got = formatDouble(v, p);
        if (got != want && ++mismatches <= 5)
            ADD_FAILURE() << "value " << v << " at precision " << p
                          << ": got '" << got << "', want '" << want
                          << "'";
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Pad, LeftAndRight)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
}

TEST(Pad, NoTruncationWhenWide)
{
    EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
    EXPECT_EQ(padRight("abcdef", 3), "abcdef");
}

} // namespace
} // namespace gables
