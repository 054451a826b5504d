/**
 * @file
 * End-to-end record -> replay round-trip tests, driven through the
 * real CLI dispatch (gables::cli::runCommand) in-process. The core
 * property: any recorded invocation replays diff-clean (exit 0), even
 * for randomized SoCs/usecases and even after the config file on disk
 * is destroyed (the bundle inlines its contents). Perturbed bundles
 * must fail with the contract's exit codes: a spliced-in foreign
 * report exits 1, an unsupported schema version exits 2. Recording is
 * byte-transparent: stdout and the metrics file are identical with
 * and without a recording Session, and every artifact flag lands
 * under replay's --out-dir, which no recorded path can leave.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/driver.h"
#include "core/gables.h"
#include "replay/bundle.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "replay/session.h"
#include "soc/config.h"
#include "util/json_writer.h"
#include "util/rng.h"

namespace gables {
namespace {

replay::CommandRunner
cliRunner()
{
    return [](const std::vector<std::string> &argv,
              replay::Session &session) {
        return cli::runCommand(argv, &session);
    };
}

/** Replay options as `gables replay` sets them: the CLI's
 * replayable commands. */
replay::ReplayOptions
cliOptions()
{
    replay::ReplayOptions opts;
    opts.commands = cli::replayableCommands();
    return opts;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << text;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Random small SoC + one "mix" usecase, as config text. */
std::string
randomConfig(Rng &rng)
{
    size_t n = 1 + static_cast<size_t>(rng.next() % 3);
    std::vector<IpSpec> ips;
    for (size_t i = 0; i < n; ++i) {
        ips.push_back(IpSpec{"IP" + std::to_string(i),
                             i == 0 ? 1.0 : rng.uniform(0.5, 20.0),
                             rng.uniform(1e9, 40e9)});
    }
    SocSpec soc("rand", rng.uniform(10e9, 100e9),
                rng.uniform(5e9, 30e9), std::move(ips));

    std::vector<double> f(n);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        f[i] = rng.uniform(0.01, 1.0);
        sum += f[i];
    }
    std::vector<IpWork> work;
    for (size_t i = 0; i < n; ++i)
        work.push_back(IpWork{f[i] / sum, rng.uniform(0.1, 16.0)});
    return formatSocConfig(soc, {Usecase("mix", std::move(work))});
}

/** Record one in-process invocation and return its bundle. */
replay::ReplayBundle
record(const std::vector<std::string> &argv)
{
    replay::Session session;
    int code = cli::runCommand(argv, &session);
    return replay::recordBundle(argv, session, code);
}

void
writeBundleFile(const std::string &path,
                const replay::ReplayBundle &bundle)
{
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    replay::writeBundle(out, bundle);
}

// The headline property: record a randomized eval, replay it, and
// the fresh report must diff clean against the recorded one — even
// after the config file the run read is overwritten on disk, because
// the bundle carries the captured bytes.
TEST(ReplayRoundTrip, RandomizedEvalReplaysClean)
{
    Rng rng(0x9AB1E5);
    for (int iter = 0; iter < 6; ++iter) {
        SCOPED_TRACE(iter);
        const std::string cfg = "replay_rt_soc.ini";
        const std::string bundle = "replay_rt_bundle.json";
        writeFile(cfg, randomConfig(rng));

        std::vector<std::string> argv = {
            "gables",     "eval",  "--file",    cfg,
            "--usecase",  "mix",   "--metrics", "replay_rt_out.json"};
        testing::internal::CaptureStdout();
        replay::ReplayBundle b = record(argv);
        testing::internal::GetCapturedStdout();
        ASSERT_EQ(b.exitCode, 0);
        ASSERT_TRUE(b.hasReport);
        ASSERT_EQ(b.configFiles.count(cfg), 1u);
        writeBundleFile(bundle, b);

        // The inlined contents must win over whatever is on disk.
        writeFile(cfg, "[soc]\nthis is not even a config\n");

        testing::internal::CaptureStdout();
        replay::ReplayOutcome outcome =
            replay::replayBundle(bundle, cliRunner(), cliOptions());
        testing::internal::GetCapturedStdout();
        EXPECT_EQ(outcome.exitCode, 0) << outcome.detail;
        EXPECT_EQ(outcome.status, "match");
        EXPECT_EQ(outcome.subcommand, "eval");
        EXPECT_GT(outcome.fieldsCompared, 0u);
        EXPECT_EQ(outcome.diffCount, 0u);
    }
}

// Splicing a different run's report into a bundle must surface as a
// divergence (exit 1), and a future schema version as a bad bundle
// (exit 2) — the validate-style contract CI keys off.
TEST(ReplayRoundTrip, PerturbedBundlesFailWithContractExitCodes)
{
    Rng rng(0xD1FF);
    const std::string cfgA = "replay_rt_perturb_a.ini";
    const std::string cfgB = "replay_rt_perturb_b.ini";
    writeFile(cfgA, randomConfig(rng));
    writeFile(cfgB, randomConfig(rng));

    std::vector<std::string> argvA = {
        "gables",    "eval", "--file",    cfgA,
        "--usecase", "mix",  "--metrics", "replay_rt_a.json"};
    std::vector<std::string> argvB = {
        "gables",    "eval", "--file",    cfgB,
        "--usecase", "mix",  "--metrics", "replay_rt_b.json"};

    testing::internal::CaptureStdout();
    replay::ReplayBundle a = record(argvA);
    replay::ReplayBundle b = record(argvB);
    testing::internal::GetCapturedStdout();
    ASSERT_TRUE(a.hasReport);
    ASSERT_TRUE(b.hasReport);

    const std::string path = "replay_rt_perturbed.json";

    // Edited metric: a's invocation with b's recorded numbers.
    replay::ReplayBundle spliced = a;
    spliced.report = b.report;
    writeBundleFile(path, spliced);
    testing::internal::CaptureStdout();
    replay::ReplayOutcome mismatch =
        replay::replayBundle(path, cliRunner(), cliOptions());
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(mismatch.exitCode, 1);
    EXPECT_EQ(mismatch.status, "report-mismatch");
    EXPECT_GT(mismatch.diffCount, 0u);

    // Edited schema version: refused before any re-execution.
    replay::ReplayBundle future = a;
    future.schemaVersion = 99;
    writeBundleFile(path, future);
    replay::ReplayOutcome bad =
        replay::replayBundle(path, cliRunner(), cliOptions());
    EXPECT_EQ(bad.exitCode, 2);
    EXPECT_EQ(bad.status, "bad-bundle");

    // Edited exit code: the recorded run claims failure, the fresh
    // run succeeds — that is a divergence, not a bad bundle.
    replay::ReplayBundle wrongExit = a;
    wrongExit.exitCode = 1;
    writeBundleFile(path, wrongExit);
    testing::internal::CaptureStdout();
    replay::ReplayOutcome exitMismatch =
        replay::replayBundle(path, cliRunner(), cliOptions());
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(exitMismatch.exitCode, 1);
    EXPECT_EQ(exitMismatch.status, "exit-code-mismatch");
}

TEST(ReplayRoundTrip, UnreadableAndNestedBundlesAreBad)
{
    replay::ReplayOutcome missing = replay::replayBundle(
        "replay_rt_no_such_bundle.json", cliRunner(), cliOptions());
    EXPECT_EQ(missing.exitCode, 2);
    EXPECT_EQ(missing.status, "bad-bundle");

    // A bundle whose recorded command is itself `replay` is refused:
    // replays must not recurse.
    replay::ReplayBundle nested;
    nested.argv = {"gables", "replay", "inner.json"};
    writeBundleFile("replay_rt_nested.json", nested);
    replay::ReplayOutcome outcome =
        replay::replayBundle("replay_rt_nested.json", cliRunner(),
                             cliOptions());
    EXPECT_EQ(outcome.exitCode, 2);
    EXPECT_EQ(outcome.status, "bad-bundle");
}

// A bundle naming a subcommand the CLI does not mark replayable, a
// misspelled one included, is refused before anything runs.
TEST(ReplayRoundTrip, UnreplayableSubcommandIsRefusedWithoutRunning)
{
    for (const char *name : {"evl", "serve", "replay"}) {
        SCOPED_TRACE(name);
        replay::ReplayBundle bundle;
        bundle.argv = {"gables", name, "--soc", "paper"};
        writeBundleFile("replay_rt_unreplayable.json", bundle);
        bool ran = false;
        replay::ReplayOutcome outcome = replay::replayBundle(
            "replay_rt_unreplayable.json",
            [&ran](const std::vector<std::string> &, replay::Session &) {
                ran = true;
                return 0;
            },
            cliOptions());
        EXPECT_FALSE(ran);
        EXPECT_EQ(outcome.exitCode, 2);
        EXPECT_EQ(outcome.status, "bad-bundle");
        EXPECT_EQ(outcome.subcommand, name);
        EXPECT_NE(outcome.detail.find(std::string("'") + name + "'"),
                  std::string::npos)
            << outcome.detail;
    }
    std::remove("replay_rt_unreplayable.json");
}

// Artifacts the replayed command writes to relative paths (here the
// recorded --metrics file) must land under ReplayOptions::artifactDir
// instead of littering the working directory, and an empty
// artifactDir must restore the original behavior.
TEST(ReplayRoundTrip, RelativeArtifactsRedirectToOutDir)
{
    Rng rng(0x0D1A);
    const std::string cfg = "replay_rt_redir.ini";
    const std::string bundlePath = "replay_rt_redir_bundle.json";
    const std::string metrics = "replay_rt_redir_metrics.json";
    writeFile(cfg, randomConfig(rng));

    std::vector<std::string> argv = {
        "gables",    "eval", "--file",    cfg,
        "--usecase", "mix",  "--metrics", metrics};
    testing::internal::CaptureStdout();
    replay::ReplayBundle b = record(argv);
    testing::internal::GetCapturedStdout();
    ASSERT_EQ(b.exitCode, 0);
    writeBundleFile(bundlePath, b);
    std::remove(metrics.c_str());

    replay::ReplayOptions opts = cliOptions();
    opts.artifactDir = "replay_rt_outdir";
    testing::internal::CaptureStdout();
    replay::ReplayOutcome outcome =
        replay::replayBundle(bundlePath, cliRunner(), opts);
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(outcome.exitCode, 0) << outcome.detail;
    EXPECT_TRUE(readFile(metrics).empty())
        << "metrics leaked into the working directory";
    EXPECT_FALSE(readFile("replay_rt_outdir/" + metrics).empty());

    opts.artifactDir.clear();
    testing::internal::CaptureStdout();
    outcome = replay::replayBundle(bundlePath, cliRunner(), opts);
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(outcome.exitCode, 0) << outcome.detail;
    EXPECT_FALSE(readFile(metrics).empty());
}

// Every artifact flag writes through the same atomic path as
// --metrics, so each lands under the session's artifact directory
// and is still announced under the path the user gave.
TEST(ReplayRoundTrip, EveryCliArtifactHonorsTheOutDir)
{
    const std::string dir = "replay_rt_artifacts";
    const std::vector<std::string> names = {
        "replay_rt_a.svg", "replay_rt_v.json", "replay_rt_s.trace",
        "replay_rt_p.trace"};
    replay::Session session;
    session.artifactDir = dir;
    testing::internal::CaptureStdout();
    int eval = cli::runCommand(
        {"gables", "eval", "--svg", names[0], "--viz-json", names[1]},
        &session);
    int sim = cli::runCommand({"gables", "sim", "--soc", "sd835",
                               "--epochs", "5", "--trace", names[2]},
                              &session);
    int pipeline =
        cli::runCommand({"gables", "pipeline", "--usecase", "hdr",
                         "--frames", "4", "--trace", names[3]},
                        &session);
    std::string out = testing::internal::GetCapturedStdout();

    EXPECT_EQ(eval, 0);
    EXPECT_EQ(sim, 0);
    EXPECT_EQ(pipeline, 0);
    for (const std::string &name : names) {
        EXPECT_TRUE(readFile(name).empty())
            << name << " leaked into the working directory";
        EXPECT_FALSE(readFile(dir + "/" + name).empty()) << name;
        EXPECT_NE(out.find("wrote " + name), std::string::npos) << name;
    }
}

// A recorded absolute artifact path is re-rooted under the out-dir:
// the replay matches, its file lands at <out-dir>/<path without its
// root>, and nothing is written at the recorded path.
TEST(ReplayRoundTrip, AbsoluteArtifactPathIsReRootedUnderTheOutDir)
{
    const std::filesystem::path svg =
        std::filesystem::absolute("replay_rt_abs_src") / "abs.svg";
    const std::string bundlePath = "replay_rt_abs_bundle.json";
    const std::string outDir = "replay_rt_abs_out";
    std::filesystem::create_directories(svg.parent_path());

    std::vector<std::string> argv = {"gables", "eval", "--soc", "paper",
                                     "--svg", svg.string(), "--metrics",
                                     "replay_rt_abs.json"};
    testing::internal::CaptureStdout();
    replay::ReplayBundle b = record(argv);
    testing::internal::GetCapturedStdout();
    ASSERT_EQ(b.exitCode, 0);
    ASSERT_TRUE(b.hasReport);
    writeBundleFile(bundlePath, b);
    std::filesystem::remove(svg);
    std::filesystem::remove_all(outDir);

    replay::ReplayOptions opts = cliOptions();
    opts.artifactDir = outDir;
    testing::internal::CaptureStdout();
    replay::ReplayOutcome outcome =
        replay::replayBundle(bundlePath, cliRunner(), opts);
    std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(outcome.exitCode, 0) << outcome.detail;
    EXPECT_EQ(outcome.status, "match");
    EXPECT_FALSE(std::filesystem::exists(svg))
        << "replay wrote the recorded absolute path";
    const std::filesystem::path rooted =
        std::filesystem::path(outDir) / svg.relative_path();
    EXPECT_FALSE(readFile(rooted.string()).empty()) << rooted;
    EXPECT_NE(out.find("wrote " + svg.string() + "\n"),
              std::string::npos)
        << out;
}

// A recorded artifact path that climbs out of the out-dir with ".."
// fails the replayed command (exit 1 with a diagnostic naming the
// path and the out-dir), so the replay diverges and writes nothing.
TEST(ReplayRoundTrip, ArtifactPathLeavingTheOutDirIsRefused)
{
    const std::string escape = "replay_rt_escape.svg";
    const std::string outDir = "replay_rt_escape_out/replay";
    const std::string recorded = "../../" + escape;
    const std::string bundlePath = "replay_rt_escape_bundle.json";
    std::filesystem::remove(escape);
    std::filesystem::remove_all("replay_rt_escape_out");

    replay::ReplayBundle b;
    b.argv = {"gables", "eval", "--soc", "paper", "--svg", recorded};
    writeBundleFile(bundlePath, b);

    replay::ReplayOptions opts = cliOptions();
    opts.artifactDir = outDir;
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    replay::ReplayOutcome outcome =
        replay::replayBundle(bundlePath, cliRunner(), opts);
    std::string err = testing::internal::GetCapturedStderr();
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(outcome.exitCode, 1);
    EXPECT_EQ(outcome.status, "exit-code-mismatch");
    EXPECT_NE(outcome.detail.find("replay exited 1"), std::string::npos)
        << outcome.detail;
    EXPECT_NE(err.find("gables: error: artifact path '" + recorded +
                       "' climbs out of the out-dir '" + outDir + "'"),
              std::string::npos)
        << err;
    EXPECT_FALSE(std::filesystem::exists(escape))
        << "replay wrote outside its out-dir";
}

// A config that fails to parse is still inlined into the bundle (it
// is kept before it is parsed), so its validate run replays with the
// same diagnostic after the file is gone.
TEST(ReplayRoundTrip, UnparseableConfigIsInlinedAndReplays)
{
    const std::string cfg = "replay_rt_unparseable.ini";
    const std::string text = "[soc]\nname = bad\nppeak = 40 Gops/s\n"
                             "bpeak = 10 GB/s\n\n[ip CPU]\naccel = 1\n"
                             "bandwidth = 6 GB/s\ncolour = blue\n";
    const std::string bundlePath = "replay_rt_unparseable_bundle.json";
    writeFile(cfg, text);

    testing::internal::CaptureStderr();
    replay::ReplayBundle b = record({"gables", "validate", cfg});
    std::string recordedErr = testing::internal::GetCapturedStderr();
    ASSERT_EQ(b.exitCode, 1);
    ASSERT_NE(recordedErr.find("colour"), std::string::npos)
        << recordedErr;
    ASSERT_EQ(b.configFiles.count(cfg), 1u);
    EXPECT_EQ(b.configFiles.at(cfg), text);
    writeBundleFile(bundlePath, b);
    std::filesystem::remove(cfg);

    testing::internal::CaptureStderr();
    replay::ReplayOutcome outcome =
        replay::replayBundle(bundlePath, cliRunner(), cliOptions());
    std::string replayedErr = testing::internal::GetCapturedStderr();
    EXPECT_EQ(outcome.exitCode, 0) << outcome.detail;
    EXPECT_EQ(outcome.status, "match");
    EXPECT_EQ(replayedErr, recordedErr);
}

// The session holds exactly the bytes of the --metrics file, also for
// a report that JsonWriter flushes in several chunks.
TEST(ReplayRoundTrip, SessionReportIsTheMetricsFile)
{
    const std::string metrics = "replay_rt_big.json";
    replay::Session session;
    testing::internal::CaptureStdout();
    int code = cli::runCommand({"gables", "sweep", "--soc", "sd835",
                                "--points", "5000", "--jobs", "1",
                                "--metrics", metrics},
                               &session);
    testing::internal::GetCapturedStdout();
    ASSERT_EQ(code, 0);
    ASSERT_GT(session.report.size(), 3 * JsonWriter::kChunkBytes);
    EXPECT_EQ(session.report, readFile(metrics));
}

// Recording must be byte-transparent: the same invocation produces
// identical stdout and an identical metrics file whether or not it
// runs with a recording Session.
TEST(ReplayRoundTrip, RecordingIsByteTransparent)
{
    Rng rng(0xBEEF);
    const std::string cfg = "replay_rt_transparent.ini";
    writeFile(cfg, randomConfig(rng));
    std::vector<std::string> argv = {
        "gables",    "eval", "--file",    cfg,
        "--usecase", "mix",  "--metrics", "replay_rt_t.json"};

    testing::internal::CaptureStdout();
    int plainCode = cli::runCommand(argv);
    std::string plainOut = testing::internal::GetCapturedStdout();
    std::string plainMetrics = readFile("replay_rt_t.json");

    testing::internal::CaptureStdout();
    replay::ReplayBundle bundle = record(argv);
    std::string recordedOut = testing::internal::GetCapturedStdout();
    std::string recordedMetrics = readFile("replay_rt_t.json");

    EXPECT_EQ(bundle.exitCode, plainCode);
    EXPECT_EQ(recordedOut, plainOut);
    EXPECT_EQ(recordedMetrics, plainMetrics);
    EXPECT_FALSE(plainMetrics.empty());
}

} // namespace
} // namespace gables
