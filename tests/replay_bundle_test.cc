/**
 * @file
 * Unit tests for the replay bundle format: write/parse round-trip,
 * schema name/version enforcement, tolerance decoding, shape
 * validation of each section, writeJsonValue() fidelity for
 * arbitrary JSON documents (the recorded report is embedded through
 * it, so it must re-emit every value type faithfully), and the
 * bundles replayBundle() refuses to run.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "replay/bundle.h"
#include "replay/replayer.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/parse.h"

namespace gables {
namespace replay {
namespace {

ReplayBundle
sampleBundle()
{
    ReplayBundle b;
    b.argv = {"gables", "eval", "--file", "configs/two_ip.ini",
              "--usecase", "6b"};
    b.configFiles["configs/two_ip.ini"] =
        "[soc]\nppeak = 40 Gops/s\nbpeak = 10 GB/s\n";
    b.exitCode = 0;
    b.tolerance.tolRel = 1e-9;
    b.tolerance.tolAbs = 1e-12;
    b.tolerance.ignore = {"profile", "parallel.worker_busy_s"};
    b.hasReport = true;
    b.report = parseJson(
        "{\"schema\": {\"name\": \"gables-run-report\"},"
        " \"gauges\": {\"eval.attainable\": 1.328e9}}");
    return b;
}

std::string
serialize(const ReplayBundle &b)
{
    std::ostringstream out;
    writeBundle(out, b);
    return out.str();
}

TEST(ReplayBundle, WriteParseRoundTrip)
{
    ReplayBundle b = sampleBundle();
    std::string text = serialize(b);
    ReplayBundle back = parseBundle(parseJson(text), "bundle.json");

    EXPECT_EQ(back.schemaVersion, ReplayBundle::kSchemaVersion);
    EXPECT_EQ(back.argv, b.argv);
    EXPECT_EQ(back.configFiles, b.configFiles);
    EXPECT_EQ(back.exitCode, 0);
    EXPECT_DOUBLE_EQ(back.tolerance.tolRel, 1e-9);
    EXPECT_DOUBLE_EQ(back.tolerance.tolAbs, 1e-12);
    EXPECT_EQ(back.tolerance.ignore, b.tolerance.ignore);
    ASSERT_TRUE(back.hasReport);
    EXPECT_DOUBLE_EQ(
        back.report.at("gauges").at("eval.attainable").asNumber(),
        1.328e9);
    EXPECT_EQ(back.subcommand(), "eval");
}

TEST(ReplayBundle, ReportlessBundleRoundTrips)
{
    ReplayBundle b = sampleBundle();
    b.hasReport = false;
    b.report = JsonValue();
    ReplayBundle back =
        parseBundle(parseJson(serialize(b)), "bundle.json");
    EXPECT_FALSE(back.hasReport);
    EXPECT_TRUE(back.report.isNull());
}

TEST(ReplayBundle, RejectsWrongSchemaName)
{
    ReplayBundle b = sampleBundle();
    std::string text = serialize(b);
    size_t pos = text.find("gables-replay-bundle");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string("gables-replay-bundle").size(),
                 "gables-run-report!!!");
    EXPECT_THROW(parseBundle(parseJson(text), "bundle.json"),
                 ConfigError);
}

TEST(ReplayBundle, RejectsFutureSchemaVersion)
{
    ReplayBundle b = sampleBundle();
    b.schemaVersion = ReplayBundle::kSchemaVersion + 98;
    try {
        parseBundle(parseJson(serialize(b)), "bundle.json");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        std::string what = err.what();
        // The diagnostic names both the found and supported version.
        EXPECT_NE(what.find("99"), std::string::npos) << what;
        EXPECT_NE(what.find("1"), std::string::npos) << what;
        EXPECT_NE(what.find("bundle.json"), std::string::npos)
            << what;
    }
}

TEST(ReplayBundle, RejectsMalformedSections)
{
    struct Case {
        const char *text;
        const char *label;
    };
    const Case cases[] = {
        {"[1, 2, 3]", "root not an object"},
        {"{}", "missing schema"},
        {"{\"schema\": {\"name\": \"gables-replay-bundle\","
         " \"version\": 1}}",
         "missing command"},
        {"{\"schema\": {\"name\": \"gables-replay-bundle\","
         " \"version\": 1},"
         " \"command\": {\"argv\": [\"gables\"]}, \"exit_code\": 0}",
         "argv too short"},
        {"{\"schema\": {\"name\": \"gables-replay-bundle\","
         " \"version\": 1},"
         " \"command\": {\"argv\": [\"gables\", 42]},"
         " \"exit_code\": 0}",
         "argv element not a string"},
        {"{\"schema\": {\"name\": \"gables-replay-bundle\","
         " \"version\": 1},"
         " \"command\": {\"argv\": [\"gables\", \"eval\"]},"
         " \"exit_code\": 0,"
         " \"config_files\": {\"a.ini\": 7}}",
         "config file contents not a string"},
        {"{\"schema\": {\"name\": \"gables-replay-bundle\","
         " \"version\": 1},"
         " \"command\": {\"argv\": [\"gables\", \"eval\"]},"
         " \"exit_code\": 0,"
         " \"tolerance\": {\"tol_rel\": -0.5}}",
         "negative tolerance"},
        {"{\"schema\": {\"name\": \"gables-replay-bundle\","
         " \"version\": 1},"
         " \"command\": {\"argv\": [\"gables\", \"eval\"]},"
         " \"exit_code\": 0, \"report\": [true]}",
         "report not an object"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.label);
        EXPECT_THROW(parseBundle(parseJson(c.text), "bundle.json"),
                     ConfigError);
    }
}

// writeJsonValue() must re-emit any DOM so that a parse of the output
// equals the input — the recorded report travels through it twice
// (record-time embed, replay-time compare), so lossiness here would
// surface as phantom diffs.
TEST(ReplayBundle, WriteJsonValuePreservesEveryValueType)
{
    const std::string text =
        "{\"null\": null, \"t\": true, \"f\": false,"
        " \"int\": 42, \"neg\": -17.25, \"tiny\": 1.328e-300,"
        " \"str\": \"a \\\"quoted\\\" string\\n\","
        " \"arr\": [1, [2, {\"deep\": 3}], []],"
        " \"obj\": {\"nested\": {\"empty\": {}}}}";
    JsonValue doc = parseJson(text);

    std::ostringstream out;
    JsonWriter json(out, /*pretty=*/true);
    writeJsonValue(json, doc);
    JsonValue back = parseJson(out.str());

    EXPECT_TRUE(back.at("null").isNull());
    EXPECT_TRUE(back.at("t").asBool());
    EXPECT_FALSE(back.at("f").asBool());
    EXPECT_DOUBLE_EQ(back.at("int").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(back.at("neg").asNumber(), -17.25);
    EXPECT_DOUBLE_EQ(back.at("tiny").asNumber(), 1.328e-300);
    EXPECT_EQ(back.at("str").asString(), "a \"quoted\" string\n");
    ASSERT_EQ(back.at("arr").size(), 3u);
    EXPECT_DOUBLE_EQ(
        back.at("arr").at(1).at(1).at("deep").asNumber(), 3.0);
    EXPECT_EQ(back.at("arr").at(2).size(), 0u);
    EXPECT_EQ(back.at("obj").at("nested").at("empty").size(), 0u);
    // Member order is part of the document contract.
    EXPECT_EQ(back.members().front().first, "null");
    EXPECT_EQ(back.members().back().first, "obj");
}

// A recorded `serve` would start a daemon that runs until signalled,
// so replay (and `replay --all`) would never return: the bundle is
// refused as bad before anything runs.
TEST(ReplayBundle, ServeBundleIsRefusedWithoutRunning)
{
    ReplayBundle b;
    b.argv = {"gables", "serve", "--socket", "replay_serve.sock"};
    const std::string path =
        ::testing::TempDir() + "replay_bundle_serve.json";
    {
        std::ofstream out(path);
        writeBundle(out, b);
    }
    bool ran = false;
    ReplayOutcome outcome =
        replayBundle(path, [&ran](const std::vector<std::string> &,
                                  Session &) {
            ran = true;
            return 0;
        });
    std::remove(path.c_str());
    EXPECT_FALSE(ran);
    EXPECT_EQ(outcome.exitCode, 2);
    EXPECT_EQ(outcome.status, "bad-bundle");
    EXPECT_NE(outcome.detail.find("'serve'"), std::string::npos)
        << outcome.detail;
}

} // namespace
} // namespace replay
} // namespace gables
