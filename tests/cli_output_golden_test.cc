/**
 * @file
 * Byte-identity of the CLI's text output: the commands run in-process
 * through cli::runCommand, and their stdout (and the sweep's
 * RunReport) must equal the committed goldens under tests/golden/
 * byte for byte. The goldens pin the table renderer, formatDouble,
 * the unit formatters and the JSON writer together, and the help
 * text and error diagnostics (stderr plus exit code) of the command
 * surface.
 *
 * The "wrote PATH" lines, the sweep's `parallel.worker_busy_s` entry
 * (wall-clock readings) and the simulator's
 * `telemetry.service_log_bytes` gauge (the memory its service logs
 * hold: a property of the log's layout, not of the simulation) are
 * left out of the comparison.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/driver.h"
#include "util/strings.h"

namespace gables {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
golden(const std::string &name)
{
    std::string text = readFile(std::string(GABLES_GOLDEN_DIR) + "/" + name);
    EXPECT_FALSE(text.empty()) << "missing golden " << name;
    return text;
}

/** One invocation's exit code and output streams. */
struct Outcome {
    int code;
    std::string out;
    std::string err;
};

/** Run one command with stdout and stderr captured. */
Outcome
runBoth(const std::vector<std::string> &argv)
{
    std::ostringstream out;
    std::ostringstream err;
    std::streambuf *old_out = std::cout.rdbuf(out.rdbuf());
    std::streambuf *old_err = std::cerr.rdbuf(err.rdbuf());
    int code = cli::runCommand(argv);
    std::cout.rdbuf(old_out);
    std::cerr.rdbuf(old_err);
    return {code, out.str(), err.str()};
}

/** Run one command that must succeed; @return its stdout. */
std::string
runCaptured(const std::vector<std::string> &argv)
{
    Outcome run = runBoth(argv);
    EXPECT_EQ(run.code, 0) << run.err;
    return run.out;
}

/** @return @p text without its lines that start with @p prefix. */
std::string
dropLines(const std::string &text, const std::string &prefix)
{
    std::string kept;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (!startsWith(line, prefix))
            kept += line + '\n';
    }
    return kept;
}

/**
 * @return Pretty-printed JSON @p text without object member @p key:
 * from the comma before it through the brace that closes its value.
 */
std::string
dropMember(const std::string &text, const std::string &key)
{
    std::string quoted = "\"" + key + "\": ";
    size_t at = text.find(quoted);
    if (at == std::string::npos)
        return text;
    size_t from = text.rfind(',', at);
    size_t i = at + quoted.size();
    int depth = 0;
    for (; i < text.size(); ++i) {
        if (text[i] == '{')
            ++depth;
        else if (text[i] == '}' && --depth == 0)
            break;
    }
    return text.substr(0, from) + text.substr(i + 1);
}

TEST(CliOutputGolden, SweepTableAndReport)
{
    std::string report = ::testing::TempDir() + "golden_sweep_report.json";
    std::string out =
        runCaptured({"gables", "sweep", "--soc", "sd835", "--points", "201",
                     "--i0", "5.7", "--i1", "0.51", "--jobs", "1",
                     "--metrics", report});
    EXPECT_EQ(dropLines(out, "wrote "), golden("sweep_sd835_201.txt"));
    EXPECT_EQ(dropMember(readFile(report), "parallel.worker_busy_s"),
              golden("sweep_sd835_201_report.json"));
    std::remove(report.c_str());
}

TEST(CliOutputGolden, Eval)
{
    EXPECT_EQ(runCaptured({"gables", "eval", "--soc", "sd835"}),
              golden("eval_sd835.txt"));
}

TEST(CliOutputGolden, Sim)
{
    EXPECT_EQ(runCaptured({"gables", "sim", "--soc", "sd835", "--epochs",
                           "8"}),
              golden("sim_sd835_epochs8.txt"));
}

/**
 * A run long enough (293k chunks) to outgrow the service logs'
 * reservation: the epoch series come from logs that grew mid-run.
 */
TEST(CliOutputGolden, SimLongRunWithReport)
{
    std::string report = ::testing::TempDir() + "golden_sim_report.json";
    std::string out =
        runCaptured({"gables", "sim", "--soc", "sd835", "--bytes", "4e8",
                     "--working-set", "4e8", "--epochs", "16", "--metrics",
                     report});
    EXPECT_EQ(dropLines(out, "wrote "), golden("sim_sd835_4e8.txt"));
    EXPECT_EQ(dropMember(readFile(report), "telemetry.service_log_bytes"),
              golden("sim_sd835_4e8_report.json"));
    std::remove(report.c_str());
}

TEST(CliOutputGolden, Usecases)
{
    EXPECT_EQ(runCaptured({"gables", "usecases"}),
              golden("usecases.txt"));
}

/** A command whose whole stdout is pinned by tests/golden/<golden>.txt. */
struct StdoutCase {
    std::string golden;
    std::vector<std::string> argv;
};

void
PrintTo(const StdoutCase &c, std::ostream *os)
{
    *os << c.golden;
}

class CommandStdout : public ::testing::TestWithParam<StdoutCase>
{
};

TEST_P(CommandStdout, MatchesGolden)
{
    EXPECT_EQ(runCaptured(GetParam().argv),
              golden(GetParam().golden + ".txt"));
}

INSTANTIATE_TEST_SUITE_P(
    CliOutputGolden, CommandStdout,
    ::testing::Values(
        StdoutCase{"advise_paper",
                   {"gables", "advise", "--soc", "paper", "--f", "0.75",
                    "--i0", "8", "--i1", "0.1"}},
        StdoutCase{"sensitivity_paper",
                   {"gables", "sensitivity", "--soc", "paper", "--f",
                    "0.75", "--i0", "8", "--i1", "0.1"}},
        StdoutCase{"robust_default", {"gables", "robust"}},
        StdoutCase{"balance_default", {"gables", "balance"}},
        StdoutCase{"ert_sd821_cpu",
                   {"gables", "ert", "--chip", "sd821", "--engine", "CPU",
                    "--jobs", "1"}},
        // A non-calibrated name: the simulator comes from the spec
        // bridge.
        StdoutCase{"sim_paper_epochs4",
                   {"gables", "sim", "--soc", "paper", "--epochs", "4"}},
        StdoutCase{"explore_points3",
                   {"gables", "explore", "--points", "3", "--jobs", "1"}},
        StdoutCase{"provision", {"gables", "provision"}},
        StdoutCase{"pipeline_hfr_48",
                   {"gables", "pipeline", "--usecase", "hfr", "--frames",
                    "48"}},
        StdoutCase{"glossary", {"gables", "glossary"}}),
    [](const ::testing::TestParamInfo<StdoutCase> &info) {
        return info.param.golden;
    });

/**
 * `gables help` (stdout), then every command's --help (stderr, exit
 * 0) in the order `gables help` lists them.
 */
TEST(CliOutputGolden, Help)
{
    std::string text = runCaptured({"gables", "help"});
    for (const char *cmd :
         {"eval", "sweep", "sim", "usecases", "ert", "balance", "advise",
          "sensitivity", "robust", "pipeline", "explore", "provision",
          "report", "replay", "serve", "validate", "glossary"}) {
        Outcome run = runBoth({"gables", cmd, "--help"});
        EXPECT_EQ(run.code, 0) << cmd;
        EXPECT_EQ(run.out, "") << cmd;
        text += run.err;
    }
    EXPECT_EQ(text, golden("help.txt"));
}

/**
 * Usage and data errors: a transcript of each command line (paths
 * shown by file name), its stderr and its exit code.
 */
TEST(CliOutputGolden, Errors)
{
    std::string config =
        ::testing::TempDir() + "golden_soc_without_usecases.ini";
    std::ofstream(config) << "[soc]\nname  = bare\nppeak = 40 Gops/s\n"
                             "bpeak = 10 GB/s\n\n[ip CPU]\naccel     = 1\n"
                             "bandwidth = 6 GB/s\n";
    const std::vector<std::vector<std::string>> cases = {
        {"gables", "evl"},
        {"gables", "eval", "--soc", "sd8355"},
        {"gables", "pipeline", "--usecase", "gamin"},
        {"gables", "explore", "--usecase", "gamin"},
        {"gables", "ert", "--chip", "sd845"},
        {"gables", "eval", "--file", config},
    };
    std::string transcript;
    for (const std::vector<std::string> &argv : cases) {
        transcript += "$";
        for (const std::string &arg : argv)
            transcript += " " + arg.substr(arg.find_last_of('/') + 1);
        Outcome run = runBoth(argv);
        EXPECT_EQ(run.out, "") << transcript;
        transcript += "\n" + run.err + "exit " +
                      std::to_string(run.code) + "\n";
    }
    EXPECT_EQ(transcript, golden("errors.txt"));
    std::remove(config.c_str());
}

/**
 * A model flag that the chosen input source would ignore is a usage
 * error (exit 2) that names the flags: --usecase without --file, and
 * catalog --soc/--f/--i0/--i1 next to --file.
 */
TEST(CliOutputGolden, IgnoredModelFlagsAreUsageErrors)
{
    const std::string config =
        std::string(GABLES_CONFIG_DIR) + "/paper_two_ip.ini";
    for (const std::string cmd : {"eval", "advise", "sensitivity"}) {
        SCOPED_TRACE(cmd);
        const std::string prefix = "gables " + cmd + ": ";

        Outcome alone = runBoth({"gables", cmd, "--usecase", "6b"});
        EXPECT_EQ(alone.code, 2);
        EXPECT_EQ(alone.out, "");
        EXPECT_TRUE(startsWith(alone.err,
                               prefix + "--usecase needs --file\n"))
            << alone.err;

        Outcome mixed =
            runBoth({"gables", cmd, "--file", config, "--usecase", "6b",
                     "--f", "0.1", "--soc", "sd835"});
        EXPECT_EQ(mixed.code, 2);
        EXPECT_EQ(mixed.out, "");
        EXPECT_TRUE(startsWith(
            mixed.err,
            prefix + "--soc, --f cannot be combined with --file\n"))
            << mixed.err;

        Outcome split = runBoth(
            {"gables", cmd, "--file", config, "--i1", "8", "--i0", "2"});
        EXPECT_EQ(split.code, 2);
        EXPECT_TRUE(startsWith(
            split.err,
            prefix + "--i0, --i1 cannot be combined with --file\n"))
            << split.err;

        // --file with its own --usecase is the supported spelling.
        EXPECT_EQ(runBoth({"gables", cmd, "--file", config, "--usecase",
                           "6b"})
                      .code,
                  0);
    }
}

} // namespace
} // namespace gables
