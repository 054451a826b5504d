/**
 * @file
 * Round-trip tests of the RunReport artifact: driver-shaped reports
 * are written, parsed back through util/json_reader, checked for
 * schema header and section order, and self-diffed through the same
 * engine `gables report diff` uses. A perturbed copy must diff
 * nonzero, and a profile subtree must survive the trip when a span
 * tracer is attached.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/report.h"
#include "telemetry/report_diff.h"
#include "telemetry/span.h"
#include "telemetry/stats.h"
#include "util/json_reader.h"

namespace gables {
namespace telemetry {
namespace {

std::string
writeToString(const RunReport &report)
{
    std::ostringstream out;
    report.write(out);
    return out.str();
}

/**
 * A report shaped like each driver's --metrics output: generator,
 * config echo, and a stats registry with that driver's metric kinds.
 */
void
fillDriverReport(const std::string &generator, RunReport &report,
                 StatsRegistry &reg)
{
    report.addConfig("soc", std::string("sd835"));
    report.addConfig("points", 64L);
    report.addConfig("step", 0.01);
    if (generator == "gables sim") {
        report.setDuration(0.125);
        report.addEngine({"CPU", 1e9, 2e8, 1e7, 8e9});
        report.addResource({"DRAM", 2e8, 0.1, 0.8});
        report.addDelta("CPU", 8.2e9, 8.0e9);
        reg.counter(generator + ".events", "events drained").add(1e6);
        reg.distribution("queue.depth").sample(3.0);
    } else if (generator == "gables sweep") {
        TimeSeries &s = reg.timeSeries("mixing.normalized_perf");
        s.sample(0.0, 1.0);
        s.sample(0.5, 2.0);
        reg.counter("model.evals").add(64.0);
    } else if (generator == "gables sensitivity") {
        reg.gauge("sensitivity.Ppeak").set(0.0);
        reg.gauge("sensitivity.Bpeak").set(1.0);
    } else {
        reg.gauge(generator + ".result").set(42.0);
        reg.counter(generator + ".iterations").add(7.0);
    }
    report.setRegistry(&reg);
}

const std::vector<std::string> kDrivers = {
    "gables eval",    "gables sweep",     "gables sim",
    "gables ert",     "gables explore",   "gables advise",
    "gables provision", "gables sensitivity",
};

TEST(RunReportRoundTrip, SchemaHeaderAndSectionOrder)
{
    RunReport report("gables sim", "Snapdragon 835");
    StatsRegistry reg;
    fillDriverReport("gables sim", report, reg);

    JsonValue doc = parseJson(writeToString(report));
    EXPECT_EQ(doc.at("schema").at("name").asString(),
              RunReport::kSchemaName);
    EXPECT_DOUBLE_EQ(doc.at("schema").at("version").asNumber(),
                     RunReport::kSchemaVersion);
    EXPECT_EQ(doc.at("generator").asString(), "gables sim");
    EXPECT_EQ(doc.at("subject").asString(), "Snapdragon 835");

    // Section order is part of the artifact contract.
    std::vector<std::string> keys;
    for (const auto &member : doc.members())
        keys.emplace_back(member.first);
    const std::vector<std::string> expected = {
        "schema",  "generator", "subject",      "config",
        "duration_s", "engines", "resources", "model_vs_sim",
        "stats",
    };
    EXPECT_EQ(keys, expected);
}

TEST(RunReportRoundTrip, EveryDriverShapeSelfDiffsClean)
{
    for (const std::string &driver : kDrivers) {
        RunReport report(driver, "test subject");
        StatsRegistry reg;
        fillDriverReport(driver, report, reg);

        JsonValue doc = parseJson(writeToString(report));
        ReportDiffResult result = diffReports(doc, doc);
        EXPECT_TRUE(result.identical()) << driver;
        EXPECT_GT(result.fieldsCompared, 0u) << driver;
    }
}

TEST(RunReportRoundTrip, PerturbedReportDiffsNonzero)
{
    RunReport a("gables sweep", "subject");
    StatsRegistry reg_a;
    fillDriverReport("gables sweep", a, reg_a);

    RunReport b("gables sweep", "subject");
    StatsRegistry reg_b;
    fillDriverReport("gables sweep", b, reg_b);
    reg_b.counter("model.evals").add(1.0); // 64 -> 65

    JsonValue da = parseJson(writeToString(a));
    JsonValue db = parseJson(writeToString(b));
    ReportDiffResult result = diffReports(da, db);
    ASSERT_EQ(result.diffs.size(), 1u);
    EXPECT_EQ(result.diffs[0].path, "stats.model.evals.value");

    // The CI gate's tolerance makes the same pair pass.
    ReportDiffOptions loose;
    loose.tolRel = 0.05;
    EXPECT_TRUE(diffReports(da, db, loose).identical());
}

TEST(RunReportRoundTrip, ProfileSubtreeSurvivesWhenTracerAttached)
{
    SpanTracer tracer;
    SpanTracer::setActive(&tracer);
    {
        GABLES_SPAN("gables.sweep");
        { GABLES_SPAN("sweep.grid"); }
    }
    SpanTracer::setActive(nullptr);

    RunReport report("gables sweep", "subject");
    StatsRegistry reg;
    fillDriverReport("gables sweep", report, reg);
    report.setProfile(&tracer);

    JsonValue doc = parseJson(writeToString(report));
    ASSERT_TRUE(doc.has("profile"));
    // "profile" sits immediately before "stats".
    std::vector<std::string_view> members;
    for (const auto &member : doc.members())
        members.push_back(member.first);
    ASSERT_GE(members.size(), 2u);
    EXPECT_EQ(members[members.size() - 2], "profile");
    EXPECT_EQ(members[members.size() - 1], "stats");

    const JsonValue &prof = doc.at("profile");
    EXPECT_GE(prof.at("wall_s").asNumber(), 0.0);
    ASSERT_EQ(prof.at("spans").size(), 1u);
    const JsonValue &root_span = prof.at("spans").at(0);
    EXPECT_EQ(root_span.at("name").asString(), "gables.sweep");
    EXPECT_EQ(root_span.at("children").at(0).at("name").asString(),
              "sweep.grid");

    // A profiled report still self-diffs clean.
    EXPECT_TRUE(diffReports(doc, doc).identical());

    // Detaching the tracer keeps the report profile-free: the PR 1
    // byte-identity contract.
    RunReport plain("gables sweep", "subject");
    StatsRegistry reg2;
    fillDriverReport("gables sweep", plain, reg2);
    plain.setProfile(nullptr);
    JsonValue doc2 = parseJson(writeToString(plain));
    EXPECT_FALSE(doc2.has("profile"));
}

TEST(RunReportRoundTrip, EmptyRegistryStillWellFormed)
{
    RunReport report("gables eval", "subject");
    JsonValue doc = parseJson(writeToString(report));
    EXPECT_TRUE(doc.at("stats").isObject());
    EXPECT_EQ(doc.at("stats").size(), 0u);
    EXPECT_TRUE(diffReports(doc, doc).identical());
}

} // namespace
} // namespace telemetry
} // namespace gables
