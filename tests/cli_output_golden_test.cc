/**
 * @file
 * Byte-identity of the CLI's text output: sweep, eval, sim and
 * usecases run in-process through cli::runCommand, and their stdout
 * (and the sweep's RunReport) must equal the committed goldens under
 * tests/golden/ byte for byte. The goldens pin the table renderer,
 * formatDouble, the unit formatters and the JSON writer together.
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

/** Run one command with stdout captured; @return its stdout. */
std::string
runCaptured(const std::vector<std::string> &argv)
{
    std::ostringstream out;
    std::streambuf *old = std::cout.rdbuf(out.rdbuf());
    int code = cli::runCommand(argv);
    std::cout.rdbuf(old);
    EXPECT_EQ(code, 0);
    return out.str();
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

} // namespace
} // namespace gables
