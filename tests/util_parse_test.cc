/**
 * @file
 * Unit tests for the strict parsing and diagnostics layer
 * (util/parse.h): full-token numeric parsers, ranged variants,
 * SourceLoc/ConfigError formatting, and did-you-mean suggestions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/parse.h"

namespace gables {
namespace {

TEST(ParseDoubleStrict, AcceptsFullTokens)
{
    EXPECT_DOUBLE_EQ(parseDoubleStrict("0.75"), 0.75);
    EXPECT_DOUBLE_EQ(parseDoubleStrict("3e9"), 3e9);
    EXPECT_DOUBLE_EQ(parseDoubleStrict("-1.5"), -1.5);
    EXPECT_DOUBLE_EQ(parseDoubleStrict("  42  "), 42.0);
    EXPECT_DOUBLE_EQ(parseDoubleStrict("+2.5"), 2.5);
    // Underflow is not an error: a tiny magnitude rounds to zero,
    // matching the old strtod behavior.
    EXPECT_DOUBLE_EQ(parseDoubleStrict("1e-999"), 0.0);
}

TEST(ParseDoubleStrict, RejectsGarbage)
{
    EXPECT_THROW(parseDoubleStrict(""), FatalError);
    EXPECT_THROW(parseDoubleStrict("   "), FatalError);
    EXPECT_THROW(parseDoubleStrict("abc"), FatalError);
    EXPECT_THROW(parseDoubleStrict("1.5x"), FatalError);
    EXPECT_THROW(parseDoubleStrict("1.5 2.5"), FatalError);
    EXPECT_THROW(parseDoubleStrict("1e999"), FatalError);
    // Locale-style decimal commas are trailing garbage, never a
    // decimal point.
    EXPECT_THROW(parseDoubleStrict("1,5"), FatalError);
}

TEST(ParseDoubleStrict, RejectsHexAndNonFinite)
{
    // Strict config input takes plain decimal notation only.
    EXPECT_THROW(parseDoubleStrict("0x1p3"), FatalError);
    EXPECT_THROW(parseDoubleStrict("-0X2"), FatalError);
    EXPECT_THROW(parseDoubleStrict("inf"), FatalError);
    EXPECT_THROW(parseDoubleStrict("-inf"), FatalError);
    EXPECT_THROW(parseDoubleStrict("infinity"), FatalError);
    EXPECT_THROW(parseDoubleStrict("nan"), FatalError);
    EXPECT_THROW(parseDoubleStrict("NaN"), FatalError);
}

TEST(ParseDoubleStrict, ErrorNamesTheWhat)
{
    try {
        parseDoubleStrict("abc", "fraction");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("fraction"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("abc"),
                  std::string::npos);
    }
}

TEST(ParseIntStrict, AcceptsFullTokens)
{
    EXPECT_EQ(parseIntStrict("17"), 17);
    EXPECT_EQ(parseIntStrict("-3"), -3);
    EXPECT_EQ(parseIntStrict(" 0 "), 0);
}

TEST(ParseIntStrict, RejectsGarbageAndFractions)
{
    EXPECT_THROW(parseIntStrict(""), FatalError);
    EXPECT_THROW(parseIntStrict("abc"), FatalError);
    EXPECT_THROW(parseIntStrict("12abc"), FatalError);
    EXPECT_THROW(parseIntStrict("1.5"), FatalError);
    // 2^200 overflows long.
    EXPECT_THROW(parseIntStrict("1606938044258990275541962092341162"
                                "602522202993782792835301376"),
                 FatalError);
}

TEST(ParseIntInRange, EnforcesBounds)
{
    EXPECT_EQ(parseIntInRange("5", 0, 10), 5);
    EXPECT_EQ(parseIntInRange("0", 0, 10), 0);
    EXPECT_EQ(parseIntInRange("10", 0, 10), 10);
    EXPECT_THROW(parseIntInRange("11", 0, 10), FatalError);
    EXPECT_THROW(parseIntInRange("-1", 0, 10), FatalError);
}

TEST(ParseDoublePrefix, SplitsNumberAndRest)
{
    double value = 0.0;
    std::string rest;
    ASSERT_TRUE(parseDoublePrefix("24.4GB/s", &value, &rest));
    EXPECT_DOUBLE_EQ(value, 24.4);
    EXPECT_EQ(rest, "GB/s");
    ASSERT_TRUE(parseDoublePrefix("42", &value, &rest));
    EXPECT_DOUBLE_EQ(value, 42.0);
    EXPECT_TRUE(rest.empty());
    ASSERT_TRUE(parseDoublePrefix(" 24.4 GB/s", &value, &rest));
    EXPECT_DOUBLE_EQ(value, 24.4);
    EXPECT_EQ(rest, " GB/s");
    EXPECT_FALSE(parseDoublePrefix("fast", &value, &rest));
    EXPECT_FALSE(parseDoublePrefix("", &value, &rest));
    // Hex and non-finite leading tokens are not numbers here either.
    EXPECT_FALSE(parseDoublePrefix("0x1p3", &value, &rest));
    EXPECT_FALSE(parseDoublePrefix("infGB/s", &value, &rest));
    EXPECT_FALSE(parseDoublePrefix("nan", &value, &rest));
}

TEST(SourceLoc, Formats)
{
    EXPECT_EQ((SourceLoc{"a.ini", 7}).str(), "a.ini:7");
    EXPECT_EQ((SourceLoc{"a.ini", 0}).str(), "a.ini");
    EXPECT_EQ((SourceLoc{"", 7}).str(), "line 7");
    EXPECT_EQ((SourceLoc{"", 0}).str(), "");
}

TEST(ConfigError, CarriesLocationAndMessage)
{
    ConfigError err(SourceLoc{"soc.ini", 12}, "bad ppeak");
    EXPECT_STREQ(err.what(), "soc.ini:12: bad ppeak");
    EXPECT_EQ(err.where().file, "soc.ini");
    EXPECT_EQ(err.where().line, 12);
    EXPECT_EQ(err.message(), "bad ppeak");
}

TEST(ConfigError, IsCatchableAsFatalError)
{
    try {
        configError(SourceLoc{"x.ini", 3}, "boom");
        FAIL() << "expected throw";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("x.ini:3"),
                  std::string::npos);
    }
}

TEST(EditDistance, ClassicCases)
{
    EXPECT_EQ(editDistance("", ""), 0u);
    EXPECT_EQ(editDistance("abc", "abc"), 0u);
    EXPECT_EQ(editDistance("abc", ""), 3u);
    EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
    EXPECT_EQ(editDistance("bpeek", "bpeak"), 1u);
    EXPECT_EQ(editDistance("jbos", "jobs"), 2u);
}

TEST(ClosestMatch, SuggestsNearTypos)
{
    std::vector<std::string> keys = {"name", "ppeak", "bpeak"};
    EXPECT_EQ(closestMatch("bpeek", keys).value_or(""), "bpeak");
    EXPECT_EQ(closestMatch("peak", keys).value_or(""), "ppeak");
    // Case-insensitive.
    EXPECT_EQ(closestMatch("Ppeak", keys).value_or(""), "ppeak");
    // Nothing close: no suggestion.
    EXPECT_FALSE(closestMatch("zzzzzz", keys).has_value());
    // A 1-char word never matches a totally different key.
    EXPECT_FALSE(closestMatch("q", {"jobs"}).has_value());
}

TEST(DidYouMean, FormatsSuffix)
{
    EXPECT_EQ(didYouMean("bpeek", {"bpeak", "ppeak"}),
              " (did you mean 'bpeak'?)");
    EXPECT_EQ(didYouMean("zzzzzz", {"bpeak", "ppeak"}), "");
}

} // namespace
} // namespace gables
