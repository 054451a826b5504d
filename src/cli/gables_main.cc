/**
 * @file
 * Thin entry point for the `gables` binary: strip the global
 * options valid anywhere on the command line (--log-level,
 * --profile, --record), set up the span tracer, forward to the
 * command dispatch in cli/driver.cc, and under --record write the
 * replay bundle of what the command's Session gathered.
 * Keeping main() this small lets `gables replay` re-enter the same
 * dispatch in-process through gables::cli::runCommand().
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/driver.h"
#include "replay/recorder.h"
#include "telemetry/span.h"
#include "util/atomic_file.h"
#include "util/logging.h"

int
main(int argc, char **argv)
{
    using namespace gables::cli;

    // Strip the global options before command dispatch, so every
    // subcommand honors them without declaring them. --record takes
    // the bundle path; the recorded argv is the filtered one, so
    // bundles carry no host-dependent global flags.
    bool profile = false;
    std::string record_path;
    std::vector<const char *> filtered;
    try {
        for (int i = 0; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--log-level") {
                if (i + 1 >= argc) {
                    std::cerr << "gables: --log-level needs a value\n";
                    return kExitUsage;
                }
                gables::setLogLevel(gables::parseLogLevel(argv[++i]));
            } else if (arg.rfind("--log-level=", 0) == 0) {
                gables::setLogLevel(gables::parseLogLevel(
                    arg.substr(std::string("--log-level=").size())));
            } else if (arg == "--profile") {
                profile = true;
            } else if (arg == "--record") {
                if (i + 1 >= argc) {
                    std::cerr << "gables: --record needs a bundle "
                                 "path\n";
                    return kExitUsage;
                }
                record_path = argv[++i];
            } else if (arg.rfind("--record=", 0) == 0) {
                record_path =
                    arg.substr(std::string("--record=").size());
            } else {
                filtered.push_back(argv[i]);
            }
        }
    } catch (const gables::FatalError &err) {
        std::cerr << "gables: " << err.what() << '\n';
        return kExitUsage;
    }
    int fargc = static_cast<int>(filtered.size());
    const char *const *fargv = filtered.data();

    if (fargc < 2) {
        usage(std::cerr);
        return kExitUsage;
    }

    // The tracer outlives every span (static), and stays inactive —
    // one never-taken branch per instrumentation site — unless
    // --profile was given.
    static gables::telemetry::SpanTracer tracer;
    if (profile)
        gables::telemetry::SpanTracer::setActive(&tracer);

    // For the daemon, --record means "tee requests", not "capture a
    // replay bundle": a server run has no single RunReport to bundle.
    // Translate it into the serve-side flag and skip the recorder.
    std::vector<std::string> serve_argv;
    if (!record_path.empty() &&
        std::string(fargv[1]) == "serve") {
        serve_argv.assign(filtered.begin(), filtered.end());
        serve_argv.push_back("--record-requests");
        serve_argv.push_back(record_path);
        record_path.clear();
        filtered.clear();
        for (const std::string &arg : serve_argv)
            filtered.push_back(arg.c_str());
        fargc = static_cast<int>(filtered.size());
        fargv = filtered.data();
    }

    // The session only keeps copies of what the command reads and
    // writes, so a run under --record is byte-identical to one
    // without. A bundle must capture a real run, so a replay is not
    // recorded.
    const bool recording = !record_path.empty();
    if (recording && std::string(fargv[1]) == "replay") {
        std::cerr << "gables: --record cannot wrap 'replay' "
                     "(replay bundles must capture a real run)\n";
        return kExitUsage;
    }
    gables::replay::Session session;

    int code = runCommand(fargc, fargv, recording ? &session : nullptr);

    if (recording) {
        // Atomic write: an interrupted --record run must never leave
        // a truncated bundle for the corpus to trip over.
        try {
            std::ostringstream out;
            gables::replay::writeBundle(
                out, gables::replay::recordBundle(
                         std::vector<std::string>(filtered.begin(),
                                                  filtered.end()),
                         session, code));
            gables::writeFileAtomic(record_path, out.str());
            gables::debug("recorded replay bundle " + record_path);
        } catch (const gables::FatalError &err) {
            std::cerr << "gables: error: " << err.what() << '\n';
            return kExitError;
        }
    }
    if (profile)
        std::cerr << tracer.summaryTable();
    return code;
}
