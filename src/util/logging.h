/**
 * @file
 * Logging and error-reporting primitives for the Gables library.
 *
 * Follows the gem5 discipline: inform() for status, warn() for suspect
 * but survivable conditions, fatal() for user errors that prevent
 * continuing, and panic() for internal invariant violations (library
 * bugs). fatal() only throws: the handler that catches the error is
 * its one reporter (the CLI's `gables:` line, a serve error
 * response), so nothing is written where the error is raised. panic()
 * logs and aborts.
 */

#ifndef GABLES_UTIL_LOGGING_H
#define GABLES_UTIL_LOGGING_H

#include <sstream>
#include <stdexcept>
#include <string>

namespace gables {

/** Severity of a log message. */
enum class LogLevel {
    Debug,
    Info,
    Warn,
    /** Silences all three above. Errors are thrown, not logged. */
    Error,
};

/**
 * Error thrown by fatal() — a user-correctable problem such as a
 * malformed SoC specification or an out-of-range usecase parameter.
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/**
 * Set the minimum level that reaches the log sink.
 *
 * @param level Messages below this severity are suppressed.
 */
void setLogLevel(LogLevel level);

/** @return The current minimum log level. */
LogLevel logLevel();

/**
 * Parse a log-level name: "debug", "info", "warn"/"warning", or
 * "error" (case-insensitive).
 *
 * @throws FatalError on an unknown name.
 */
LogLevel parseLogLevel(const std::string &name);

/** @return The canonical name of @p level ("debug", "info", ...). */
const char *logLevelName(LogLevel level);

/**
 * Redirect log output to a string buffer for testing; pass nullptr to
 * restore stderr.
 *
 * @param sink Stream that receives subsequent log lines, or nullptr.
 */
void setLogSink(std::ostream *sink);

/** Emit an informational status message. */
void inform(const std::string &msg);

/** Emit a debug message (suppressed unless level is Debug). */
void debug(const std::string &msg);

/**
 * Emit a warning: something may be mis-modeled but execution can
 * continue.
 */
void warn(const std::string &msg);

/**
 * Abort the operation on a user-correctable error by throwing
 * FatalError. Writes nothing: the handler that catches it reports it.
 *
 * @param msg Description of the problem and how to fix it.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal invariant violation (a library bug) and abort the
 * process.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Emit a debug message, building the message string only when the
 * Debug level is active. Use on hot paths where composing the message
 * (string concatenation, std::to_string) would otherwise run on every
 * call just to be discarded by debug()'s level check.
 */
#define GABLES_DLOG(expr)                                                 \
    do {                                                                  \
        if (::gables::logLevel() == ::gables::LogLevel::Debug)            \
            ::gables::debug(expr);                                        \
    } while (0)

/**
 * Assert an internal invariant; on failure, panic with location info.
 * Like the standard assert(), the check compiles away in NDEBUG
 * builds — several sit on the simulator's innermost loops. CMake's
 * Release and RelWithDebInfo flags (the default build) define
 * NDEBUG, so only a build without it checks these: CI's asan-ubsan
 * job is one.
 */
#ifdef NDEBUG
#define GABLES_ASSERT(cond, msg) ((void)0)
#else
#define GABLES_ASSERT(cond, msg)                                          \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::ostringstream oss_;                                      \
            oss_ << "assertion '" #cond "' failed at " << __FILE__ << ':' \
                 << __LINE__ << ": " << (msg);                            \
            ::gables::panic(oss_.str());                                  \
        }                                                                 \
    } while (0)
#endif

} // namespace gables

#endif // GABLES_UTIL_LOGGING_H
