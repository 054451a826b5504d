/**
 * @file
 * Tests of the logging layer: severity tags on emitted lines, level
 * filtering, log-level parsing for the --log-level CLI flag, and the
 * fatal() contract.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "util/logging.h"

namespace gables {
namespace {

/** Capture log output and restore level + sink on destruction. */
class LogCapture
{
  public:
    LogCapture()
        : savedLevel_(logLevel())
    {
        setLogSink(&buf_);
    }

    ~LogCapture()
    {
        setLogSink(nullptr);
        setLogLevel(savedLevel_);
    }

    std::string text() const { return buf_.str(); }

  private:
    std::ostringstream buf_;
    LogLevel savedLevel_;
};

TEST(Logging, LinesCarrySeverityTags)
{
    LogCapture cap;
    setLogLevel(LogLevel::Debug);
    debug("d-msg");
    inform("i-msg");
    warn("w-msg");
    EXPECT_EQ(cap.text(), "debug: d-msg\ninfo: i-msg\nwarn: w-msg\n");
}

TEST(Logging, LevelFiltersLowerSeverities)
{
    LogCapture cap;
    setLogLevel(LogLevel::Warn);
    debug("hidden");
    inform("hidden");
    warn("visible");
    EXPECT_EQ(cap.text(), "warn: visible\n");
}

TEST(Logging, FatalThrowsAndWritesNothing)
{
    // The handler that catches the error reports it; a line written
    // where it is raised would be a second report, and a daemon whose
    // stderr nobody drains would block on it.
    LogCapture cap;
    for (LogLevel level : {LogLevel::Debug, LogLevel::Error}) {
        setLogLevel(level);
        EXPECT_THROW(fatal("boom"), FatalError);
    }
    setLogLevel(LogLevel::Error);
    warn("hidden");
    EXPECT_EQ(cap.text(), "");
}

TEST(Logging, FatalCarriesMessage)
{
    LogCapture cap;
    try {
        fatal("the reason");
        FAIL() << "fatal() must throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "the reason");
    }
}

TEST(Logging, ParseLogLevelAcceptsNamesCaseInsensitively)
{
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("INFO"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("Warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("warning"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
}

TEST(Logging, ParseLogLevelRejectsUnknownNames)
{
    LogCapture cap;
    EXPECT_THROW(parseLogLevel("verbose"), FatalError);
    EXPECT_THROW(parseLogLevel(""), FatalError);
}

TEST(Logging, DlogSkipsMessageConstructionWhenDisabled)
{
    LogCapture cap;
    setLogLevel(LogLevel::Info);
    int evaluations = 0;
    auto expensive = [&evaluations] {
        ++evaluations;
        return std::string("pricey");
    };
    GABLES_DLOG(expensive());
    EXPECT_EQ(evaluations, 0) << "argument must not be evaluated "
                                 "below Debug level";
    EXPECT_EQ(cap.text(), "");

    setLogLevel(LogLevel::Debug);
    GABLES_DLOG(expensive());
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(cap.text(), "debug: pricey\n");
}

TEST(Logging, DlogComposesWithControlFlow)
{
    // The macro must behave as a single statement (usable un-braced
    // in an if/else).
    LogCapture cap;
    setLogLevel(LogLevel::Debug);
    if (true)
        GABLES_DLOG("then-branch");
    else
        GABLES_DLOG("else-branch");
    EXPECT_EQ(cap.text(), "debug: then-branch\n");
}

TEST(Logging, LevelNamesRoundTrip)
{
    EXPECT_STREQ(logLevelName(LogLevel::Debug), "debug");
    EXPECT_STREQ(logLevelName(LogLevel::Info), "info");
    EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
    EXPECT_STREQ(logLevelName(LogLevel::Error), "error");
    for (LogLevel l : {LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                       LogLevel::Error})
        EXPECT_EQ(parseLogLevel(logLevelName(l)), l);
}

} // namespace
} // namespace gables
