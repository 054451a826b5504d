#include "replay/replayer.h"

#include <algorithm>
#include <filesystem>

#include "telemetry/report_diff.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/parse.h"

namespace gables {
namespace replay {

namespace {

/** Write the fresh report next to the recorded ones for offline
 * diffing (CI uploads the directory as an artifact on mismatch). */
void
saveFreshReport(const std::string &bundle_path,
                const std::string &dir, const std::string &fresh)
{
    if (dir.empty() || fresh.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string stem =
        std::filesystem::path(bundle_path).stem().string();
    std::string out_path =
        (std::filesystem::path(dir) / (stem + ".fresh.json"))
            .string();
    try {
        writeFileAtomic(out_path, fresh);
    } catch (const FatalError &err) {
        // Fresh reports are CI artifacts, not the verdict; a failed
        // save must not mask the replay result.
        warn("cannot write fresh report '" + out_path +
             "': " + err.what());
    }
}

ReplayOutcome
fail(int code, const std::string &status, const std::string &detail)
{
    ReplayOutcome outcome;
    outcome.exitCode = code;
    outcome.status = status;
    outcome.detail = detail;
    return outcome;
}

} // namespace

ReplayOutcome
replayBundle(const std::string &path, const CommandRunner &run,
             const ReplayOptions &opts)
{
    // Bundle decoding errors are exit 2 (the artifact is unusable),
    // mirroring how the CLI treats malformed command lines.
    ReplayBundle bundle;
    try {
        bundle = parseBundle(
            parseJson(readWholeFile(path, "replay bundle")), path);
    } catch (const ConfigError &err) {
        return fail(2, "bad-bundle", err.what());
    } catch (const FatalError &err) {
        return fail(2, "bad-bundle", err.what());
    }
    ReplayOutcome outcome;
    outcome.subcommand = bundle.subcommand();
    if (std::ranges::count(opts.commands, outcome.subcommand) == 0) {
        outcome.exitCode = 2;
        outcome.status = "bad-bundle";
        outcome.detail = path + ": refusing to replay '" +
                         outcome.subcommand +
                         "': not a replayable command";
        return outcome;
    }

    Session session;
    session.configFiles = std::move(bundle.configFiles);
    session.artifactDir = opts.artifactDir;
    int fresh_code = run(bundle.argv, session);
    const std::string &fresh_json = session.report;
    saveFreshReport(path, opts.saveFreshDir, fresh_json);

    if (fresh_code != bundle.exitCode) {
        outcome.exitCode = 1;
        outcome.status = "exit-code-mismatch";
        outcome.detail = "recorded exit code " +
                         std::to_string(bundle.exitCode) +
                         ", replay exited " +
                         std::to_string(fresh_code);
        return outcome;
    }

    if (!bundle.hasReport) {
        if (!fresh_json.empty()) {
            outcome.exitCode = 1;
            outcome.status = "report-mismatch";
            outcome.detail = "recorded run wrote no RunReport but "
                             "the replay produced one";
            return outcome;
        }
        outcome.status = "match";
        return outcome;
    }
    if (fresh_json.empty()) {
        outcome.exitCode = 1;
        outcome.status = "report-mismatch";
        outcome.detail = "recorded run wrote a RunReport but the "
                         "replay produced none";
        return outcome;
    }

    telemetry::ReportDiffOptions diff_opts;
    diff_opts.tolRel = bundle.tolerance.tolRel;
    diff_opts.tolAbs = bundle.tolerance.tolAbs;
    diff_opts.ignore = bundle.tolerance.ignore;
    diff_opts.ignore.insert(diff_opts.ignore.end(),
                            opts.extraIgnore.begin(),
                            opts.extraIgnore.end());
    JsonValue fresh;
    try {
        fresh = parseJson(fresh_json);
    } catch (const FatalError &err) {
        outcome.exitCode = 1;
        outcome.status = "report-mismatch";
        outcome.detail =
            std::string("fresh RunReport is unparseable: ") +
            err.what();
        return outcome;
    }
    telemetry::ReportDiffResult diff =
        telemetry::diffReports(bundle.report, fresh, diff_opts);
    outcome.fieldsCompared = diff.fieldsCompared;
    outcome.diffCount = diff.diffs.size();
    if (!diff.identical()) {
        outcome.exitCode = 1;
        outcome.status = "report-mismatch";
        outcome.detail = telemetry::formatDiff(diff);
        return outcome;
    }
    outcome.status = "match";
    return outcome;
}

std::vector<std::string>
listBundles(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        fatal("cannot list replay corpus directory '" + dir +
              "': " + ec.message());
    std::vector<std::string> paths;
    for (const std::filesystem::directory_entry &entry : it) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".json")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace replay
} // namespace gables
