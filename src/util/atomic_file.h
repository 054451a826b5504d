/**
 * @file
 * Crash-safe whole-file writes.
 *
 * Replay bundles, RunReports, and bench baselines are consumed by
 * other processes (CI diff gates, the replay corpus, dashboards), so
 * a truncated file from an interrupted run is worse than no file: it
 * poisons downstream tooling with invalid JSON. writeFileAtomic()
 * writes to a temporary sibling and renames it over the target, so
 * readers only ever observe the old contents or the complete new
 * contents — never a partial write. It writes the path it is given;
 * where an artifact lands (replay's --out-dir) is the CLI's decision.
 */

#ifndef GABLES_UTIL_ATOMIC_FILE_H
#define GABLES_UTIL_ATOMIC_FILE_H

#include <string>

namespace gables {

/**
 * Atomically replace @p path with @p contents.
 *
 * The data is written to a unique temporary file in the same
 * directory (rename(2) is only atomic within a filesystem), flushed,
 * and renamed over @p path. On any failure the temporary file is
 * removed and the original @p path is left untouched.
 *
 * @param path     Destination file path.
 * @param contents Full new file contents.
 * @throws FatalError when the temporary cannot be created, written,
 *         or renamed into place.
 */
void writeFileAtomic(const std::string &path,
                     const std::string &contents);

} // namespace gables

#endif // GABLES_UTIL_ATOMIC_FILE_H
