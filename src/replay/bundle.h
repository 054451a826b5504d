/**
 * @file
 * The replay bundle: a schema-versioned JSON artifact capturing one
 * complete `gables` CLI invocation — the argv, every config file it
 * read (contents inlined, so the bundle stays valid when the tree
 * changes), the exit code, a per-bundle diff tolerance block, and
 * the RunReport the run produced. Bundles are the durable form of
 * the repo's determinism claims: `gables replay` re-executes the
 * captured invocation in-process and diffs the fresh RunReport
 * against the recorded one (docs/REPLAY.md).
 */

#ifndef GABLES_REPLAY_BUNDLE_H
#define GABLES_REPLAY_BUNDLE_H

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/json_reader.h"

namespace gables {

class JsonWriter;

namespace replay {

/**
 * Per-bundle diff tolerances, applied when the replayed RunReport is
 * compared against the recorded one. The report's "schema" subtree
 * is always compared exactly regardless of these knobs (the diff
 * engine enforces that), so a report-schema bump can never hide
 * inside a tolerance.
 */
struct ReplayTolerance {
    /** Relative tolerance for numeric report fields. */
    double tolRel = 0.0;
    /** Absolute tolerance for numeric report fields. */
    double tolAbs = 0.0;
    /**
     * Report fields to skip, in ReportDiffOptions::ignore syntax
     * (whole member keys or dotted-path prefixes). Recorded bundles
     * default to the host-dependent fields: the "profile" subtree
     * and per-worker wall-clock times.
     */
    std::vector<std::string> ignore;
};

/** One recorded invocation, ready to serialize or re-execute. */
struct ReplayBundle {
    /** Bump when the bundle JSON layout changes incompatibly. */
    static constexpr int kSchemaVersion = 1;
    /** The schema identifier emitted under "schema"."name". */
    static constexpr const char *kSchemaName = "gables-replay-bundle";

    /**
     * Schema version this bundle claims; parseBundle() rejects any
     * value other than kSchemaVersion with a ConfigError, which the
     * replayer maps to the usage exit code (2).
     */
    int schemaVersion = kSchemaVersion;

    /**
     * The captured command line after global-flag stripping:
     * argv[0] is "gables", argv[1] the subcommand. Host-dependent
     * global flags (--log-level, --profile, --record itself) are
     * never recorded, so a bundle replays under the replay
     * invocation's own settings.
     */
    std::vector<std::string> argv;

    /**
     * Every config file the run read, path -> full contents (also a
     * file that failed to parse). On replay they seed
     * Session::configFiles, so the captured bytes win over whatever
     * is on disk.
     */
    std::map<std::string, std::string> configFiles;

    /** Exit code of the recorded run (0/1/2 contract). */
    int exitCode = 0;

    /** Diff tolerances for the report comparison. */
    ReplayTolerance tolerance;

    /** True when the recorded run wrote a RunReport. */
    bool hasReport = false;

    /** The recorded RunReport document (Null when !hasReport). */
    JsonValue report;

    /** @return argv[1], or "" for a (malformed) short argv. */
    std::string subcommand() const
    {
        return argv.size() > 1 ? argv[1] : std::string();
    }
};

/** Serialize @p bundle as pretty-printed JSON to @p out. */
void writeBundle(std::ostream &out, const ReplayBundle &bundle);

/**
 * Re-emit a parsed JSON value through a writer (used to embed the
 * recorded report inside the bundle; numbers round-trip exactly
 * because both sides speak shortest-faithful doubles).
 */
void writeJsonValue(JsonWriter &json, const JsonValue &value);

/**
 * Parse a bundle document.
 *
 * @param doc    The parsed JSON root.
 * @param source Input name for diagnostics (the bundle path).
 * @return The decoded bundle.
 * @throws ConfigError when the document is not a replay bundle, the
 *         schema name/version do not match, or a section has the
 *         wrong shape. The replayer maps this to exit code 2.
 */
ReplayBundle parseBundle(const JsonValue &doc,
                         const std::string &source);

} // namespace replay
} // namespace gables

#endif // GABLES_REPLAY_BUNDLE_H
