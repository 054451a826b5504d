/**
 * @file
 * Replay side of record/replay: re-execute a recorded bundle
 * in-process (through a caller-supplied command runner, so the
 * library never depends on the CLI driver) with a Session seeded
 * from the bundle, and diff the RunReport the Session gathers
 * against the recorded one with the bundle's tolerance block. The
 * outcome follows the validate-style exit contract: 0 = replay
 * matched, 1 = the replayed run diverged (exit code or report
 * fields), 2 = the bundle itself is unreadable or carries an
 * unsupported schema.
 */

#ifndef GABLES_REPLAY_REPLAYER_H
#define GABLES_REPLAY_REPLAYER_H

#include <functional>
#include <string>
#include <vector>

#include "replay/bundle.h"
#include "replay/session.h"

namespace gables {
namespace replay {

/**
 * Executes one recorded argv with its I/O going through @p session
 * and returns its exit code. The CLI driver passes its own dispatch
 * function; tests can substitute anything with the same shape.
 */
using CommandRunner = std::function<int(
    const std::vector<std::string> &argv, Session &session)>;

/** Knobs for a replay run. */
struct ReplayOptions {
    /**
     * Extra report fields/paths to skip, appended to the bundle's
     * own tolerance.ignore list (for host-dependent fields a bundle
     * predates, e.g. timings added by a newer build).
     */
    std::vector<std::string> extraIgnore;
    /**
     * When non-empty, write the fresh RunReport of every replayed
     * bundle into this directory as "<bundle-stem>.fresh.json" —
     * CI uploads these next to the recorded bundles on mismatch so
     * regressions can be diffed offline.
     */
    std::string saveFreshDir;
    /**
     * Session::artifactDir of the replayed command: every artifact
     * it writes (e.g. a recorded `--metrics replay-out.json`) lands
     * under this directory, so replays neither litter the caller's
     * working directory nor write outside it. Absolute recorded
     * paths are re-rooted under it, and a path that climbs out of
     * it with ".." fails the replayed command. Empty writes every
     * artifact to the path it was recorded with.
     */
    std::string artifactDir = "out/replay";
};

/** What happened when one bundle was replayed. */
struct ReplayOutcome {
    /** 0 match, 1 divergence, 2 bad bundle (exit contract). */
    int exitCode = 0;
    /** One-word status for summary tables: "match",
     * "report-mismatch", "exit-code-mismatch", "bad-bundle", ... */
    std::string status;
    /** Human-readable detail (diff listing, error message). */
    std::string detail;
    /** The replayed subcommand ("-" when the bundle is unreadable). */
    std::string subcommand = "-";
    /** Report leaf fields compared (0 for report-less bundles). */
    size_t fieldsCompared = 0;
    /** Report fields that differed beyond tolerance. */
    size_t diffCount = 0;

    /** @return True when the replay matched the recording. */
    bool matched() const { return exitCode == 0; }
};

/**
 * Replay the bundle at @p path: parse it, re-run the recorded argv
 * through @p run with a Session serving the bundle's inlined config
 * files and rooting artifacts at ReplayOptions::artifactDir, then
 * compare exit codes and diff the report the Session gathered
 * against the recorded one. A bundle that records `replay`
 * or `serve` is refused as bad-bundle (exit 2) without running it.
 * Never throws; failures are reported through the outcome.
 */
ReplayOutcome replayBundle(const std::string &path,
                           const CommandRunner &run,
                           const ReplayOptions &opts = {});

/**
 * @return Sorted paths of every "*.json" file directly inside
 *         @p dir — the batch-mode work list for `replay --all`.
 * @throws FatalError when @p dir cannot be listed.
 */
std::vector<std::string> listBundles(const std::string &dir);

} // namespace replay
} // namespace gables

#endif // GABLES_REPLAY_REPLAYER_H
