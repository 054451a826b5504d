/**
 * @file
 * Unit tests for util/units.h formatting and parsing.
 */

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/units.h"

namespace gables {
namespace {

TEST(FormatOpsRate, PicksPrefix)
{
    EXPECT_EQ(formatOpsRate(40e9), "40 Gops/s");
    EXPECT_EQ(formatOpsRate(7.5e9), "7.5 Gops/s");
    EXPECT_EQ(formatOpsRate(3.6e6), "3.6 Mops/s");
    EXPECT_EQ(formatOpsRate(250.0), "250 ops/s");
}

TEST(FormatOpsRate, SubUnit)
{
    EXPECT_EQ(formatOpsRate(0.5), "500 mops/s");
}

TEST(FormatByteRate, PicksPrefix)
{
    EXPECT_EQ(formatByteRate(24.4e9), "24.4 GB/s");
    EXPECT_EQ(formatByteRate(15.1e9), "15.1 GB/s");
    EXPECT_EQ(formatByteRate(1e3), "1 kB/s");
}

TEST(FormatBytes, BinaryPrefixes)
{
    EXPECT_EQ(formatBytes(12.0 * kMiB), "12 MiB");
    EXPECT_EQ(formatBytes(2.0 * kGiB), "2 GiB");
    EXPECT_EQ(formatBytes(512.0), "512 B");
}

// Regression: sub-unit values used to fall into the decimal sub-unit
// table and print "500 mB" (millibytes). Binary formatting clamps at
// the base unit instead.
TEST(FormatBytes, SubUnitClampsAtBase)
{
    EXPECT_EQ(formatBytes(0.5), "0.5 B");
    EXPECT_EQ(formatBytes(0.001), "0.001 B");
    EXPECT_EQ(formatBytes(-0.5), "-0.5 B");
}

TEST(FormatZero, Zeros)
{
    EXPECT_EQ(formatOpsRate(0.0), "0 ops/s");
    EXPECT_EQ(formatBytes(0.0), "0 B");
}

TEST(ParseRate, PlainNumber)
{
    EXPECT_DOUBLE_EQ(parseRate("3e9"), 3e9);
    EXPECT_DOUBLE_EQ(parseRate("42"), 42.0);
}

TEST(ParseRate, DecimalPrefixes)
{
    EXPECT_DOUBLE_EQ(parseRate("40 Gops/s"), 40e9);
    EXPECT_DOUBLE_EQ(parseRate("24.4GB/s"), 24.4e9);
    EXPECT_DOUBLE_EQ(parseRate("920 MHz"), 920e6);
    EXPECT_DOUBLE_EQ(parseRate("1.5 kB/s"), 1500.0);
    EXPECT_DOUBLE_EQ(parseRate("2 Tops/s"), 2e12);
}

TEST(ParseRate, RejectsGarbage)
{
    EXPECT_THROW(parseRate("fast"), FatalError);
    EXPECT_THROW(parseRate(""), FatalError);
    EXPECT_THROW(parseRate("10 furlongs/s"), FatalError);
}

// Regression: "k" was accepted for "Ki" but "m"/"g" were rejected for
// "Mi"/"Gi". The prefix letter is now case-insensitive for all three.
TEST(ParseRate, BinaryPrefixes)
{
    EXPECT_DOUBLE_EQ(parseRate("64KiB/s"), 64.0 * kKiB);
    EXPECT_DOUBLE_EQ(parseRate("12 MiB/s"), 12.0 * kMiB);
    EXPECT_DOUBLE_EQ(parseRate("2GiB/s"), 2.0 * kGiB);
    EXPECT_DOUBLE_EQ(parseRate("64kiB/s"), 64.0 * kKiB);
    EXPECT_DOUBLE_EQ(parseRate("12 miB/s"), 12.0 * kMiB);
    EXPECT_DOUBLE_EQ(parseRate("2 giB/s"), 2.0 * kGiB);
    EXPECT_THROW(parseRate("2 XiB/s"), FatalError);
}

TEST(FormatParse, RoundTripRates)
{
    for (double v : {1.0, 1e3, 2.5e6, 7.5e9, 3e12}) {
        double parsed = parseRate(formatOpsRate(v, 12));
        EXPECT_NEAR(parsed, v, v * 1e-9);
    }
}

// Property: format -> parse is the identity (to formatting precision)
// for rates across every prefix band, including the values
// that straddle prefix boundaries.
TEST(FormatParse, RoundTripRatesAcrossPrefixes)
{
    for (double v : {0.25, 1.0, 999.0, 1e3, 999e3, 1e6, 42.42e6, 1e9,
                     7.77e9, 1e12, 3.25e12}) {
        SCOPED_TRACE(v);
        EXPECT_NEAR(parseRate(formatOpsRate(v, 12)), v, v * 1e-9);
        EXPECT_NEAR(parseRate(formatByteRate(v, 12)), v, v * 1e-9);
    }
}

TEST(ParseRate, RejectsTrailingGarbageAfterUnit)
{
    EXPECT_THROW(parseRate("40 Gops/s extra"), FatalError);
    EXPECT_THROW(parseRate("40 Qops/s"), FatalError);
}

} // namespace
} // namespace gables
