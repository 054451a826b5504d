/**
 * @file
 * Unit tests for the CLI argument parser.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "util/arg_parser.h"
#include "util/logging.h"

namespace gables {
namespace {

/** Helper: parse a list of argv words (argv[0] is the program). */
bool
parseWords(ArgParser &parser, std::initializer_list<const char *> words,
           std::ostream &err)
{
    std::vector<const char *> argv(words);
    return parser.parse(static_cast<int>(argv.size()), argv.data(), err);
}

/** @return The bit pattern of @p v, for exact comparisons. */
uint64_t
bits(double v)
{
    uint64_t out;
    std::memcpy(&out, &v, sizeof out);
    return out;
}

TEST(ArgParser, OptionWithSeparateValue)
{
    ArgParser p("t", "test");
    p.addOption("bpeak", "bandwidth");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t", "--bpeak", "30e9"}, err));
    EXPECT_TRUE(p.has("bpeak"));
    EXPECT_DOUBLE_EQ(p.getDouble("bpeak"), 30e9);
}

TEST(ArgParser, OptionWithEqualsValue)
{
    ArgParser p("t", "test");
    p.addOption("name", "a name");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t", "--name=sd835"}, err));
    EXPECT_EQ(p.getString("name"), "sd835");
}

TEST(ArgParser, FlagPresence)
{
    ArgParser p("t", "test");
    p.addFlag("json", "emit json");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t", "--json"}, err));
    EXPECT_TRUE(p.has("json"));
    EXPECT_FALSE(p.has("absent"));
}

TEST(ArgParser, DefaultsWhenAbsent)
{
    ArgParser p("t", "test");
    p.addOption("f", "fraction", "0.5");
    p.addOption("name", "a name without a default");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t"}, err));
    EXPECT_FALSE(p.has("f"));
    EXPECT_EQ(p.getString("f"), "0.5");
    EXPECT_DOUBLE_EQ(p.getDouble("f"), 0.5);
    // The default goes through the same strict parser as a value.
    EXPECT_THROW(p.getInt("f"), FatalError);
    EXPECT_EQ(p.getString("name"), "");
}

TEST(ArgParser, AbsentTypedOptionReadsDeclaredDefaultExactly)
{
    ArgParser p("t", "test");
    p.addDoubleOption("i1", "intensity", "0.1");
    p.addDoubleOption("bytes", "bytes streamed", "67108864");
    p.addIntOption("points", "grid points", "9");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t"}, err));
    EXPECT_EQ(bits(p.getDouble("i1")), bits(0.1));
    EXPECT_EQ(bits(p.getDouble("bytes")), bits(64.0 * 1024 * 1024));
    EXPECT_EQ(p.getInt("points"), 9);

    // A supplied value reads the same as that text as a default.
    ArgParser q("t", "test");
    q.addDoubleOption("i1", "intensity");
    ASSERT_TRUE(parseWords(q, {"t", "--i1", "0.1"}, err));
    EXPECT_EQ(bits(q.getDouble("i1")), bits(p.getDouble("i1")));
}

TEST(ArgParser, HasIsFalseForUndeclaredName)
{
    ArgParser p("t", "test");
    p.addOption("soc", "catalog SoC", "paper");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t", "--soc", "sd835"}, err));
    EXPECT_TRUE(p.has("soc"));
    EXPECT_FALSE(p.has("file"));
}

TEST(ArgParserDeathTest, MalformedTypedDefaultPanicsAtDeclaration)
{
    ArgParser p("t", "test");
    EXPECT_DEATH(p.addDoubleOption("f", "fraction", "half"),
                 "option --f declares a malformed default 'half'");
    EXPECT_DEATH(p.addIntOption("n", "count", "1.5"),
                 "option --n declares a malformed default '1.5'");
    EXPECT_DEATH(p.addIntOption("n", "count", "12x"),
                 "malformed default");
}

TEST(ArgParserDeathTest, ReadingUndeclaredNamePanics)
{
    ArgParser p("t", "test");
    p.addOption("soc", "catalog SoC", "paper");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t"}, err));
    EXPECT_DEATH(p.getString("file"),
                 "option --file is read but was never declared");
    EXPECT_DEATH(p.getDouble("f"), "never declared");
    EXPECT_DEATH(p.getInt("jobs"), "never declared");
    EXPECT_DEATH(p.getStrings("ignore"), "never declared");
}

TEST(ArgParser, PositionalArguments)
{
    ArgParser p("t", "test");
    p.addOption("x", "an option");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t", "alpha", "--x", "1", "beta"}, err));
    ASSERT_EQ(p.positional().size(), 2u);
    EXPECT_EQ(p.positional()[0], "alpha");
    EXPECT_EQ(p.positional()[1], "beta");
}

TEST(ArgParser, DoubleDashEndsOptions)
{
    ArgParser p("t", "test");
    p.addFlag("v", "verbose");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t", "--", "--v"}, err));
    EXPECT_FALSE(p.has("v"));
    ASSERT_EQ(p.positional().size(), 1u);
    EXPECT_EQ(p.positional()[0], "--v");
}

TEST(ArgParser, UnknownOptionFails)
{
    ArgParser p("t", "test");
    std::ostringstream err;
    EXPECT_FALSE(parseWords(p, {"t", "--mystery"}, err));
    EXPECT_NE(err.str().find("unknown option"), std::string::npos);
}

TEST(ArgParser, UnknownOptionSuggestsClosestName)
{
    ArgParser p("t", "test");
    p.addIntOption("jobs", "worker threads");
    std::ostringstream err;
    EXPECT_FALSE(parseWords(p, {"t", "--jbos", "4"}, err));
    EXPECT_NE(err.str().find("did you mean '--jobs'?"),
              std::string::npos);
}

// Regression: `--jobs=abc` used to silently become jobs=0 (= all
// hardware threads) via strtol with a null end pointer. It must be a
// loud parse failure instead.
TEST(ArgParser, TypedIntOptionRejectsGarbage)
{
    ArgParser p("gables sweep", "test");
    p.addIntOption("jobs", "worker threads");
    std::ostringstream err;
    EXPECT_FALSE(parseWords(p, {"t", "--jobs=abc"}, err));
    EXPECT_NE(err.str().find("--jobs expects an integer"),
              std::string::npos);
    EXPECT_NE(err.str().find("abc"), std::string::npos);
    EXPECT_FALSE(p.helpRequested());
}

TEST(ArgParser, TypedIntOptionRejectsTrailingGarbage)
{
    ArgParser p("t", "test");
    p.addIntOption("n", "count");
    std::ostringstream err;
    EXPECT_FALSE(parseWords(p, {"t", "--n", "12x"}, err));
    EXPECT_FALSE(parseWords(p, {"t", "--n", "1.5"}, err));
}

TEST(ArgParser, TypedDoubleOptionRejectsGarbage)
{
    ArgParser p("t", "test");
    p.addDoubleOption("f", "fraction");
    std::ostringstream err;
    EXPECT_FALSE(parseWords(p, {"t", "--f", "half"}, err));
    EXPECT_NE(err.str().find("--f expects a number"),
              std::string::npos);
    std::ostringstream err2;
    EXPECT_TRUE(parseWords(p, {"t", "--f", "0.5"}, err2));
    EXPECT_DOUBLE_EQ(p.getDouble("f"), 0.5);
}

// Untyped options still parse strictly at accessor time.
TEST(ArgParser, UntypedGetterThrowsOnTrailingGarbage)
{
    ArgParser p("t", "test");
    p.addOption("x", "stringly typed");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t", "--x", "30e9zzz"}, err));
    EXPECT_THROW(p.getDouble("x"), FatalError);
    EXPECT_THROW(p.getInt("x"), FatalError);
    EXPECT_EQ(p.getString("x"), "30e9zzz");
}

TEST(ArgParser, MissingValueFails)
{
    ArgParser p("t", "test");
    p.addOption("x", "needs value");
    std::ostringstream err;
    EXPECT_FALSE(parseWords(p, {"t", "--x"}, err));
    EXPECT_NE(err.str().find("requires a value"), std::string::npos);
}

TEST(ArgParser, FlagRejectsValue)
{
    ArgParser p("t", "test");
    p.addFlag("json", "emit json");
    std::ostringstream err;
    EXPECT_FALSE(parseWords(p, {"t", "--json=yes"}, err));
}

TEST(ArgParser, HelpReturnsFalseAndPrintsUsage)
{
    ArgParser p("mytool", "does things");
    p.addOption("x", "the x value", "1");
    std::ostringstream err;
    EXPECT_FALSE(parseWords(p, {"mytool", "--help"}, err));
    EXPECT_TRUE(p.helpRequested());
    EXPECT_NE(err.str().find("usage: mytool"), std::string::npos);
    EXPECT_NE(err.str().find("default: 1"), std::string::npos);
}

TEST(ArgParser, HelpRequestedDistinguishesUsageErrors)
{
    ArgParser p("t", "test");
    std::ostringstream err;
    EXPECT_FALSE(parseWords(p, {"t", "--nope"}, err));
    EXPECT_FALSE(p.helpRequested());
}

TEST(ArgParser, IntParsing)
{
    ArgParser p("t", "test");
    p.addOption("n", "count");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t", "--n", "17"}, err));
    EXPECT_EQ(p.getInt("n"), 17);
}

TEST(ArgParser, RepeatedOptionAccumulatesInOrder)
{
    ArgParser p("t", "test");
    p.addOption("ignore", "field to skip (repeatable)");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(
        p, {"t", "--ignore", "profile", "--ignore=meta.seconds",
            "--ignore", "x"},
        err));
    std::vector<std::string> want = {"profile", "meta.seconds", "x"};
    EXPECT_EQ(p.getStrings("ignore"), want);
    // Scalar accessors keep last-occurrence-wins semantics.
    EXPECT_EQ(p.getString("ignore"), "x");
}

TEST(ArgParser, GetStringsEmptyWhenAbsent)
{
    ArgParser p("t", "test");
    p.addOption("ignore", "field to skip (repeatable)");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t"}, err));
    EXPECT_TRUE(p.getStrings("ignore").empty());
}

TEST(ArgParser, RepeatedNumericOptionUsesLastValue)
{
    ArgParser p("t", "test");
    p.addOption("n", "count");
    std::ostringstream err;
    ASSERT_TRUE(parseWords(p, {"t", "--n", "4", "--n", "17"}, err));
    EXPECT_EQ(p.getInt("n"), 17);
    EXPECT_DOUBLE_EQ(p.getDouble("n"), 17.0);
}

} // namespace
} // namespace gables
