/**
 * @file
 * Whole-file I/O: checked reads and crash-safe writes.
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

#include <functional>
#include <iosfwd>
#include <string>

namespace gables {

/**
 * Atomically replace @p path with what @p write puts on the stream.
 *
 * The temporary file is a unique sibling in the same directory
 * (rename(2) is only atomic within a filesystem). @p write runs on
 * it, so a large document streams to disk as it is produced instead
 * of being held whole in memory; the file is then flushed and
 * renamed over @p path. If @p write throws or the stream fails, the
 * temporary file is removed and the original @p path is left
 * untouched; a throw from @p write reaches the caller unchanged.
 *
 * @param path  Destination file path.
 * @param write Produces the full new file contents on its stream.
 * @throws FatalError when the temporary cannot be created, written,
 *         or renamed into place.
 */
void writeFileAtomic(const std::string &path,
                     const std::function<void(std::ostream &)> &write);

/** Atomically replace @p path with @p contents (see above). */
void writeFileAtomic(const std::string &path,
                     const std::string &contents);

/**
 * @return The bytes of the file at @p path, a @p noun ("config file").
 * @throws FatalError "cannot open <noun> '<path>'", or "cannot read
 *         <noun> '<path>': <reason>" when it opens but cannot be read
 *         (a directory).
 */
std::string readWholeFile(const std::string &path,
                          const std::string &noun);

} // namespace gables

#endif // GABLES_UTIL_ATOMIC_FILE_H
