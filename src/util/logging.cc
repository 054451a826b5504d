#include "util/logging.h"

#include <cctype>
#include <cstdlib>
#include <iostream>

namespace gables {

namespace {

LogLevel g_level = LogLevel::Info;
std::ostream *g_sink = nullptr;

std::ostream &
sink()
{
    return g_sink ? *g_sink : std::cerr;
}

void
emit(LogLevel level, const char *tag, const std::string &msg)
{
    if (static_cast<int>(level) < static_cast<int>(g_level))
        return;
    sink() << tag << msg << '\n';
}

} // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    return g_level;
}

LogLevel
parseLogLevel(const std::string &name)
{
    std::string n;
    for (char c : name)
        n.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (n == "debug")
        return LogLevel::Debug;
    if (n == "info")
        return LogLevel::Info;
    if (n == "warn" || n == "warning")
        return LogLevel::Warn;
    if (n == "error")
        return LogLevel::Error;
    fatal("unknown log level '" + name +
          "' (try debug, info, warn, error)");
}

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "info";
}

void
setLogSink(std::ostream *sink_stream)
{
    g_sink = sink_stream;
}

void
debug(const std::string &msg)
{
    emit(LogLevel::Debug, "debug: ", msg);
}

void
inform(const std::string &msg)
{
    emit(LogLevel::Info, "info: ", msg);
}

void
warn(const std::string &msg)
{
    emit(LogLevel::Warn, "warn: ", msg);
}

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

void
panic(const std::string &msg)
{
    sink() << "panic: " << msg << std::endl;
    std::abort();
}

} // namespace gables
