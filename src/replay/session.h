/**
 * @file
 * The I/O of one CLI invocation that record/replay intercepts: the
 * config files it reads, the RunReport it writes and where its
 * artifacts land. gables::cli::runCommand() takes a Session, and the
 * CLI's config loader, report writer and artifact writer are the
 * only code that reads it. Recording runs a command with an empty
 * Session and bundles what it gathered (recorder.h); replay seeds
 * one from a bundle and diffs the report it gathers (replayer.h).
 */

#ifndef GABLES_REPLAY_SESSION_H
#define GABLES_REPLAY_SESSION_H

#include <map>
#include <string>

namespace gables {
namespace replay {

/** What a command read and wrote, for record/replay. */
struct Session {
    /**
     * Config bytes by the path the command used. A path present here
     * is served from the map instead of the filesystem; a path read
     * from disk is added before it is parsed, so even a file that
     * fails to parse is kept.
     */
    std::map<std::string, std::string> configFiles;

    /** The last RunReport text the command wrote, newline included
     * ("" when it wrote none). */
    std::string report;

    /**
     * Root for every artifact the command writes: an absolute path
     * is re-rooted under it, a relative one is resolved against it,
     * and a path that climbs out of it with ".." is refused. Empty
     * means each artifact goes to the path it was given.
     */
    std::string artifactDir;
};

} // namespace replay
} // namespace gables

#endif // GABLES_REPLAY_SESSION_H
