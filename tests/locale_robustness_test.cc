/**
 * @file
 * Locale-robustness regression tests: numeric parsing and JSON
 * formatting must be byte-identical under LC_NUMERIC=de_DE.UTF-8
 * (decimal comma), and the full replay corpus must still replay
 * clean in-process with the German locale active. Skips gracefully
 * when the host has no de_DE locale (CI generates it).
 *
 * GABLES_CORPUS_DIR is injected by tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <clocale>
#include <cstdio>
#include <sstream>
#include <string>

#include "cli/driver.h"
#include "replay/replayer.h"
#include "telemetry/report_diff.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/parse.h"

namespace {

using namespace gables;

/** Activate a decimal-comma locale for the test, restore after. */
class GermanLocaleTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const char *current = std::setlocale(LC_NUMERIC, nullptr);
        saved_ = current ? current : "C";
        static const char *kNames[] = {"de_DE.UTF-8", "de_DE.utf8",
                                       "de_DE"};
        bool active = false;
        for (const char *name : kNames)
            if (std::setlocale(LC_NUMERIC, name) != nullptr) {
                active = true;
                break;
            }
        if (!active)
            GTEST_SKIP()
                << "no de_DE locale on this host (CI generates it)";
        if (std::string(std::localeconv()->decimal_point) != ",") {
            std::setlocale(LC_NUMERIC, saved_.c_str());
            GTEST_SKIP() << "de_DE locale has no decimal comma";
        }
    }

    void TearDown() override
    {
        std::setlocale(LC_NUMERIC, saved_.c_str());
    }

  private:
    std::string saved_;
};

TEST_F(GermanLocaleTest, LocaleDependentFormattingWouldBreak)
{
    // Demonstrate the hazard this suite guards against: the C
    // library's locale-aware formatter emits a decimal comma here,
    // which is invalid JSON. Everything below must not do this.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", 1.5);
    EXPECT_STREQ(buf, "1,5");
}

TEST_F(GermanLocaleTest, StrictParsingIgnoresTheLocale)
{
    EXPECT_EQ(parseDoubleStrict("1.5"), 1.5);
    EXPECT_EQ(parseDoubleStrict("-2.25e3"), -2250.0);
    EXPECT_EQ(parseDoubleStrict("40"), 40.0);
    // A decimal comma is still rejected — the config grammar is
    // locale-independent in both directions.
    EXPECT_THROW(parseDoubleStrict("1,5"), FatalError);

    double value = 0.0;
    std::string rest;
    ASSERT_TRUE(parseDoublePrefix("24.4 GB/s", &value, &rest));
    EXPECT_EQ(value, 24.4);
    EXPECT_EQ(rest, " GB/s");
}

TEST_F(GermanLocaleTest, JsonWriterEmitsPointDecimal)
{
    std::ostringstream out;
    JsonWriter json(out, false);
    json.beginArray();
    json.value(1.5);
    json.value(0.1);
    json.value(1.328e9);
    json.value(1e-300);
    json.endArray();
    EXPECT_EQ(out.str(), "[1.5,0.1,1328000000,1e-300]");

    // And the documents it produces still round-trip bit-exactly.
    JsonValue parsed = parseJson(out.str());
    EXPECT_EQ(parsed.at(0).asNumber(), 1.5);
    EXPECT_EQ(parsed.at(1).asNumber(), 0.1);
    EXPECT_EQ(parsed.at(3).asNumber(), 1e-300);
}

TEST_F(GermanLocaleTest, ReportDiffPrintsPointDecimals)
{
    JsonValue a = parseJson(R"({"v": 1.5, "w": [0.1, 2.25e-7]})");
    JsonValue b = parseJson(R"({"v": 2.75, "w": [0.2, 1e300]})");
    std::string text =
        telemetry::formatDiff(telemetry::diffReports(a, b, {}));
    EXPECT_NE(text.find("A: 1.5\n"), std::string::npos) << text;
    EXPECT_NE(text.find("B: 2.75\n"), std::string::npos) << text;
    EXPECT_NE(text.find("A: 0.10000000000000001\n"), std::string::npos)
        << text;
    EXPECT_NE(text.find("B: 1.0000000000000001e+300\n"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find(','), std::string::npos) << text;
}

TEST_F(GermanLocaleTest, CorpusReplaysByteIdentically)
{
    std::vector<std::string> bundles =
        replay::listBundles(GABLES_CORPUS_DIR);
    ASSERT_FALSE(bundles.empty())
        << "no corpus bundles at " << GABLES_CORPUS_DIR;
    replay::CommandRunner runner =
        [](const std::vector<std::string> &argv,
           replay::Session &session) {
            return cli::runCommand(argv, &session);
        };
    replay::ReplayOptions opts;
    opts.commands = cli::replayableCommands();
    for (const std::string &path : bundles) {
        replay::ReplayOutcome outcome =
            replay::replayBundle(path, runner, opts);
        EXPECT_TRUE(outcome.matched())
            << path << ": " << outcome.status << "\n"
            << outcome.detail;
    }
}

} // namespace
