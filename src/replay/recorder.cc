#include "replay/recorder.h"

#include "util/json_reader.h"

namespace gables {
namespace replay {

ReplayBundle
recordBundle(std::vector<std::string> argv, const Session &session,
             int exit_code)
{
    // argv[0] is whatever path launched the binary — normalize it so
    // bundles do not embed host-dependent build-tree paths.
    if (!argv.empty())
        argv[0] = "gables";
    ReplayBundle b;
    b.argv = std::move(argv);
    b.configFiles = session.configFiles;
    b.exitCode = exit_code;
    // Default tolerance: exact everywhere except the host-dependent
    // subtrees — the self-profiling tree (--profile wall times) and
    // the per-worker busy-time distribution the determinism contract
    // already excludes from byte-identity.
    b.tolerance.ignore = {"profile", "parallel.worker_busy_s"};
    if (!session.report.empty()) {
        b.hasReport = true;
        b.report = parseJson(session.report);
    }
    return b;
}

} // namespace replay
} // namespace gables
