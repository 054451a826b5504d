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
 * and without --record's hooks installed, and every artifact flag
 * honors replay's --out-dir.
 */

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
#include "soc/config.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace gables {
namespace {

replay::CommandRunner
cliRunner()
{
    return [](const std::vector<std::string> &argv) {
        return cli::runCommand(argv);
    };
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
    replay::Recorder rec(argv);
    int code = cli::runCommand(argv);
    return rec.bundle(code);
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
            replay::replayBundle(bundle, cliRunner());
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
        replay::replayBundle(path, cliRunner());
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(mismatch.exitCode, 1);
    EXPECT_EQ(mismatch.status, "report-mismatch");
    EXPECT_GT(mismatch.diffCount, 0u);

    // Edited schema version: refused before any re-execution.
    replay::ReplayBundle future = a;
    future.schemaVersion = 99;
    writeBundleFile(path, future);
    replay::ReplayOutcome bad = replay::replayBundle(path, cliRunner());
    EXPECT_EQ(bad.exitCode, 2);
    EXPECT_EQ(bad.status, "bad-bundle");

    // Edited exit code: the recorded run claims failure, the fresh
    // run succeeds — that is a divergence, not a bad bundle.
    replay::ReplayBundle wrongExit = a;
    wrongExit.exitCode = 1;
    writeBundleFile(path, wrongExit);
    testing::internal::CaptureStdout();
    replay::ReplayOutcome exitMismatch =
        replay::replayBundle(path, cliRunner());
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(exitMismatch.exitCode, 1);
    EXPECT_EQ(exitMismatch.status, "exit-code-mismatch");
}

TEST(ReplayRoundTrip, UnreadableAndNestedBundlesAreBad)
{
    replay::ReplayOutcome missing = replay::replayBundle(
        "replay_rt_no_such_bundle.json", cliRunner());
    EXPECT_EQ(missing.exitCode, 2);
    EXPECT_EQ(missing.status, "bad-bundle");

    // A bundle whose recorded command is itself `replay` is refused:
    // replays must not recurse.
    replay::ReplayBundle nested;
    nested.argv = {"gables", "replay", "inner.json"};
    writeBundleFile("replay_rt_nested.json", nested);
    replay::ReplayOutcome outcome =
        replay::replayBundle("replay_rt_nested.json", cliRunner());
    EXPECT_EQ(outcome.exitCode, 2);
    EXPECT_EQ(outcome.status, "bad-bundle");
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

    replay::ReplayOptions opts;
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
// --metrics, so each lands under an installed artifact directory and
// is still announced under the path the user gave.
TEST(ReplayRoundTrip, EveryCliArtifactHonorsTheOutDir)
{
    const std::string dir = "replay_rt_artifacts";
    const std::vector<std::string> names = {
        "replay_rt_a.svg", "replay_rt_v.json", "replay_rt_s.trace",
        "replay_rt_p.trace"};
    const std::string *prev = setArtifactDirOverride(&dir);
    testing::internal::CaptureStdout();
    int eval = cli::runCommand({"gables", "eval", "--svg", names[0],
                                "--viz-json", names[1]});
    int sim = cli::runCommand({"gables", "sim", "--soc", "sd835",
                               "--epochs", "5", "--trace", names[2]});
    int pipeline =
        cli::runCommand({"gables", "pipeline", "--usecase", "hdr",
                         "--frames", "4", "--trace", names[3]});
    std::string out = testing::internal::GetCapturedStdout();
    setArtifactDirOverride(prev);

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

// Recording must be byte-transparent: the same invocation produces
// identical stdout and an identical metrics file whether or not the
// recorder's capture hooks are installed.
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
