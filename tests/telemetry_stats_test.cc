/**
 * @file
 * Tests of the telemetry stats primitives: counter, distribution,
 * histogram, time-series, and registry semantics, plus the JSON dump
 * (validated by parsing it back).
 */

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "telemetry/stats.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace gables {
namespace telemetry {
namespace {

TEST(Counter, AccumulatesAndResets)
{
    Counter c;
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
    c.add();
    c.add(2.5);
    EXPECT_DOUBLE_EQ(c.value(), 3.5);
    c.reset();
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(Distribution, EmptyIsAllZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.sum(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Distribution, MomentsMatchKnownSamples)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.sum(), 40.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    // Population stddev of the classic example is exactly 2.
    EXPECT_NEAR(d.stddev(), 2.0, 1e-12);
}

TEST(Distribution, ResetClears)
{
    Distribution d;
    d.sample(10.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
    d.sample(-1.0);
    EXPECT_DOUBLE_EQ(d.min(), -1.0);
    EXPECT_DOUBLE_EQ(d.max(), -1.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 5); // buckets [0,2) [2,4) ... [8,10)
    h.sample(-0.5);            // underflow
    h.sample(0.0);             // bucket 0
    h.sample(1.999);           // bucket 0
    h.sample(2.0);             // bucket 1
    h.sample(9.999);           // bucket 4
    h.sample(10.0);            // overflow
    h.sample(1e9);             // overflow
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_DOUBLE_EQ(h.bucketLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketLo(4), 8.0);
}

TEST(Histogram, RejectsBadBounds)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 4), FatalError);
    EXPECT_THROW(Histogram(2.0, 1.0, 4), FatalError);
}

TEST(TimeSeries, KeepsSampleOrder)
{
    TimeSeries s;
    s.sample(0.0, 1.0);
    s.sample(0.5, 0.25);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s.times()[1], 0.5);
    EXPECT_DOUBLE_EQ(s.values()[1], 0.25);
    s.reset();
    EXPECT_EQ(s.size(), 0u);
}

TEST(TimeSeries, AssignReplacesThePointsWithoutCopying)
{
    TimeSeries s;
    s.sample(9.0, 9.0);
    std::vector<double> t = {0.0, 0.5, 1.0}, v = {1.0, 0.75, 0.5};
    const double *tData = t.data();
    s.assign(std::move(t), std::move(v));
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s.times().data(), tData);
    EXPECT_EQ(s.times(), (std::vector<double>{0.0, 0.5, 1.0}));
    EXPECT_EQ(s.values(), (std::vector<double>{1.0, 0.75, 0.5}));
    EXPECT_THROW(s.assign({0.0, 1.0}, {1.0}), FatalError);
}

TEST(StatsRegistry, SameNameReturnsSameStat)
{
    StatsRegistry reg;
    Counter &a = reg.counter("x.requests", "first");
    Counter &b = reg.counter("x.requests", "ignored on re-register");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.size(), 1u);
    a.add(3.0);
    EXPECT_DOUBLE_EQ(reg.findCounter("x.requests")->value(), 3.0);
}

TEST(StatsRegistry, KindMismatchIsFatal)
{
    StatsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.distribution("x"), FatalError);
    EXPECT_THROW(reg.histogram("x", 0.0, 1.0, 4), FatalError);
    EXPECT_THROW(reg.timeSeries("x"), FatalError);
}

TEST(StatsRegistry, KindMismatchDiagnosticNamesBothKinds)
{
    StatsRegistry reg;
    reg.counter("x.requests");
    try {
        reg.gauge("x.requests");
        FAIL() << "kind mismatch must throw";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("stats-registry"), std::string::npos);
        EXPECT_NE(what.find("x.requests"), std::string::npos);
        EXPECT_NE(what.find("counter"), std::string::npos);
        EXPECT_NE(what.find("gauge"), std::string::npos);
    }
}

TEST(StatsRegistry, ConflictingDescriptionsWarnOnceAndCount)
{
    StatsRegistry reg;
    EXPECT_EQ(reg.duplicateRegistrations(), 0u);

    Counter &a = reg.counter("x.requests", "requests served");
    // Same name, kind, and description: the supported re-attach.
    Counter &b = reg.counter("x.requests", "requests served");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.duplicateRegistrations(), 0u);

    // An empty description never conflicts.
    reg.counter("x.requests");
    EXPECT_EQ(reg.duplicateRegistrations(), 0u);

    // A different non-empty description is a collision; it still
    // returns the original stat but is counted every time.
    Counter &c = reg.counter("x.requests", "bytes sent");
    EXPECT_EQ(&a, &c);
    EXPECT_EQ(reg.duplicateRegistrations(), 1u);
    reg.counter("x.requests", "frames dropped");
    EXPECT_EQ(reg.duplicateRegistrations(), 2u);

    // The first description wins in the dump.
    std::ostringstream out;
    JsonWriter json(out, false);
    reg.writeJson(json);
    JsonValue root = parseJson(out.str());
    EXPECT_EQ(root.at("x.requests").at("desc").asString(),
              "requests served");
}

TEST(StatsRegistry, FindOfAbsentNameIsNull)
{
    StatsRegistry reg;
    EXPECT_FALSE(reg.has("ghost"));
    EXPECT_EQ(reg.findCounter("ghost"), nullptr);
    EXPECT_EQ(reg.findDistribution("ghost"), nullptr);
    EXPECT_EQ(reg.findHistogram("ghost"), nullptr);
    EXPECT_EQ(reg.findTimeSeries("ghost"), nullptr);
}

TEST(StatsRegistry, ResetValuesKeepsRegistrations)
{
    StatsRegistry reg;
    reg.counter("c").add(5.0);
    reg.distribution("d").sample(1.0);
    reg.histogram("h", 0.0, 4.0, 4).sample(1.0);
    reg.timeSeries("t").sample(0.0, 1.0);
    reg.resetValues();
    EXPECT_EQ(reg.size(), 4u);
    EXPECT_DOUBLE_EQ(reg.findCounter("c")->value(), 0.0);
    EXPECT_EQ(reg.findDistribution("d")->count(), 0u);
    EXPECT_EQ(reg.findHistogram("h")->count(), 0u);
    EXPECT_EQ(reg.findTimeSeries("t")->size(), 0u);
}

TEST(StatsRegistry, JsonDumpRoundTrips)
{
    StatsRegistry reg;
    reg.counter("c", "a counter").add(2.0);
    Distribution &d = reg.distribution("d");
    d.sample(1.0);
    d.sample(3.0);
    reg.histogram("h", 0.0, 4.0, 2).sample(3.5);
    reg.timeSeries("t").sample(0.25, 0.5);

    std::ostringstream out;
    JsonWriter json(out, false);
    reg.writeJson(json);
    JsonValue root = parseJson(out.str());

    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.size(), 4u);
    EXPECT_EQ(root.at("c").at("kind").asString(), "counter");
    EXPECT_EQ(root.at("c").at("desc").asString(), "a counter");
    EXPECT_DOUBLE_EQ(root.at("c").at("value").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(root.at("d").at("mean").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(root.at("d").at("count").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(root.at("h").at("buckets").at(1).asNumber(),
                     1.0);
    EXPECT_DOUBLE_EQ(root.at("t").at("t").at(0).asNumber(), 0.25);
    EXPECT_DOUBLE_EQ(root.at("t").at("v").at(0).asNumber(), 0.5);
}

TEST(StatsRegistry, GaugeOverwritesInsteadOfAccumulating)
{
    StatsRegistry reg;
    Gauge &g = reg.gauge("mem.bytes", "bytes held");
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    g.set(100.0);
    g.set(42.0);
    EXPECT_DOUBLE_EQ(g.value(), 42.0);

    // Re-registration returns the same gauge; resetValues zeroes it.
    EXPECT_DOUBLE_EQ(reg.gauge("mem.bytes").value(), 42.0);
    ASSERT_NE(reg.findGauge("mem.bytes"), nullptr);
    EXPECT_EQ(reg.findGauge("absent"), nullptr);
    reg.resetValues();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);

    // A gauge name cannot be re-registered as another kind.
    EXPECT_THROW(reg.counter("mem.bytes"), FatalError);
}

TEST(StatsRegistry, GaugeJsonDump)
{
    StatsRegistry reg;
    reg.gauge("g", "a gauge").set(7.5);
    std::ostringstream out;
    JsonWriter json(out, false);
    reg.writeJson(json);
    JsonValue root = parseJson(out.str());
    EXPECT_EQ(root.at("g").at("kind").asString(), "gauge");
    EXPECT_DOUBLE_EQ(root.at("g").at("value").asNumber(), 7.5);
}

} // namespace
} // namespace telemetry
} // namespace gables
