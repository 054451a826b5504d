/**
 * @file
 * Recording side of record/replay: turn what one CLI invocation read
 * and wrote into a ReplayBundle. The caller runs the command through
 * gables::cli::runCommand() with an empty Session, which gathers the
 * config files the command loads and the RunReport it writes, then
 * hands the Session here. Recording is byte-transparent: the Session
 * only keeps copies, so a run under `--record` produces exactly the
 * same stdout/stderr/files as one without.
 */

#ifndef GABLES_REPLAY_RECORDER_H
#define GABLES_REPLAY_RECORDER_H

#include <string>
#include <vector>

#include "replay/bundle.h"
#include "replay/session.h"

namespace gables {
namespace replay {

/**
 * Assemble the bundle of one recorded invocation.
 *
 * @param argv      The invocation after global-flag stripping:
 *                  argv[1] is the subcommand. argv[0] is recorded as
 *                  "gables", so bundles embed no build-tree path.
 * @param session   The Session the command ran with.
 * @param exit_code The command's exit code.
 * @throws FatalError when the session's report is not valid JSON.
 */
ReplayBundle recordBundle(std::vector<std::string> argv,
                          const Session &session, int exit_code);

} // namespace replay
} // namespace gables

#endif // GABLES_REPLAY_RECORDER_H
