/**
 * @file
 * The `gables` command driver as a library: subcommand dispatch,
 * per-command implementations, and the documented exit-code mapping
 * live here so they can be invoked both by the thin main() in
 * gables_main.cc and re-entrantly by `gables replay`, which
 * re-executes a recorded invocation in the same process and diffs
 * its RunReport against the recording (src/replay, docs/REPLAY.md).
 * Record/replay reaches a command's I/O only through the
 * replay::Session passed to runCommand().
 */

#ifndef GABLES_CLI_DRIVER_H
#define GABLES_CLI_DRIVER_H

#include <iosfwd>
#include <string>
#include <vector>

namespace gables {

namespace replay {
struct Session;
} // namespace replay

namespace cli {

/**
 * Exit codes of the documented contract (docs/ERRORS.md): 0 success,
 * 1 data/config/runtime error (FatalError), 2 CLI usage error.
 */
constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;

/** Print the top-level usage text to @p out. */
void usage(std::ostream &out);

/**
 * @return The commands `--record` may wrap and `gables replay` may
 * run, in `gables help` order: all but `replay` and `serve`.
 */
std::vector<std::string> replayableCommands();

/**
 * Dispatch one invocation: argv[0] is the program name ("gables"),
 * argv[1] the subcommand. Global flags (--log-level, --profile,
 * --record) must already be stripped — main() owns those. Never
 * throws: ConfigError/FatalError map to kExitError, unknown
 * commands and bad options to kExitUsage, exactly as the binary's
 * exit codes document.
 *
 * @param session When non-null, the command loads its config files,
 *                writes its RunReport and roots its artifacts
 *                through it (record/replay, replay/session.h).
 */
int runCommand(int argc, const char *const *argv,
               replay::Session *session = nullptr);

/** Convenience overload for recorded argv vectors. */
int runCommand(const std::vector<std::string> &argv,
               replay::Session *session = nullptr);

} // namespace cli
} // namespace gables

#endif // GABLES_CLI_DRIVER_H
