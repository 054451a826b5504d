/**
 * @file
 * Fuzz-style robustness tests for the config parser: arbitrary
 * garbage must produce a FatalError or a valid SocConfig — never a
 * crash, hang, or silently inconsistent object.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/gables.h"
#include "soc/config.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/rng.h"

namespace gables {
namespace {

/** Tokens the generator splices together. */
const char *kTokens[] = {
    "[soc]",    "[ip A]",   "[ip B]",    "[usecase u]", "[",
    "]",        "name",     "ppeak",     "bpeak",       "accel",
    "bandwidth", "=",       "1e9",       "40 Gops/s",   "@",
    "0.5",      "inf",      "#comment",  ";note",       "A",
    "B",        "garbage",  "=@=",       "\"",          "1 GB/s",
};

class ConfigFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ConfigFuzz, NeverCrashesOnRandomTokenSoup)
{
    Rng rng(GetParam());
    for (int doc = 0; doc < 200; ++doc) {
        std::string text;
        int lines = static_cast<int>(rng.uniformInt(0, 20));
        for (int l = 0; l < lines; ++l) {
            int words = static_cast<int>(rng.uniformInt(1, 5));
            for (int w = 0; w < words; ++w) {
                text += kTokens[rng.uniformInt(
                    0, static_cast<int64_t>(std::size(kTokens)) - 1)];
                text += ' ';
            }
            text += '\n';
        }
        try {
            // A parse that succeeds has built a valid SoC and valid
            // usecases: both check their rules when they are built.
            parseSocConfig(text);
        } catch (const FatalError &) {
            // Expected for malformed documents.
        }
    }
}

TEST_P(ConfigFuzz, RandomBytesRejectedCleanly)
{
    Rng rng(GetParam() ^ 0xF00D);
    for (int doc = 0; doc < 100; ++doc) {
        std::string text;
        int len = static_cast<int>(rng.uniformInt(0, 400));
        for (int i = 0; i < len; ++i) {
            // Printable ASCII plus newlines/tabs.
            int c = static_cast<int>(rng.uniformInt(0, 97));
            text += c < 95 ? static_cast<char>(' ' + c)
                           : (c == 95 ? '\n' : '\t');
        }
        try {
            parseSocConfig(text);
        } catch (const FatalError &) {
        }
    }
    SUCCEED();
}

TEST_P(ConfigFuzz, MutatedValidConfigStaysSane)
{
    // Start from a valid document and flip random characters; the
    // parser must reject or produce a consistent config.
    const std::string base = "[soc]\nname = x\nppeak = 40 Gops/s\n"
                             "bpeak = 10 GB/s\n[ip CPU]\naccel = 1\n"
                             "bandwidth = 6 GB/s\n[usecase u]\n"
                             "CPU = 1 @ 8\n";
    Rng rng(GetParam() ^ 0xBEEF);
    for (int doc = 0; doc < 200; ++doc) {
        std::string text = base;
        int flips = static_cast<int>(rng.uniformInt(1, 4));
        for (int f = 0; f < flips; ++f) {
            size_t pos = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(text.size()) - 1));
            text[pos] = static_cast<char>(' ' + rng.uniformInt(0, 94));
        }
        try {
            SocConfig cfg = parseSocConfig(text);
            // Usecases evaluate without crashing.
            for (const Usecase &u : cfg.usecases) {
                if (u.numIps() == cfg.soc.numIps())
                    GablesModel::evaluate(cfg.soc, u);
            }
        } catch (const FatalError &) {
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz,
                         ::testing::Values(1u, 7u, 42u, 1337u));

// A fixed corpus of malformed documents, one per historical silent-
// parse bug. Unlike the random soups above, each of these used to
// either crash nothing but *succeed* with a bogus value (null
// end-pointer strtod), or produce a diagnostic without a location.
// All must now raise a ConfigError that points at a line.
TEST(ConfigMalformedCorpus, EveryDocumentRejectedWithLocation)
{
    const char *corpus[] = {
        // Trailing garbage after numbers: strtod used to stop at the
        // first bad character and silently keep the prefix.
        "[soc]\nppeak = 1e9x\nbpeak = 1e9\n[ip A]\naccel = 1\n"
        "bandwidth = 1e9\n",
        "[soc]\nppeak = 1e9\nbpeak = 1e9\n[ip A]\naccel = 1.5.2\n"
        "bandwidth = 1e9\n",
        "[soc]\nppeak = 1e9\nbpeak = 1e9\n[ip A]\naccel = 1\n"
        "bandwidth = 1e9\n[usecase u]\nA = 0.5abc @ 8\n",
        "[soc]\nppeak = 1e9\nbpeak = 1e9\n[ip A]\naccel = 1\n"
        "bandwidth = 1e9\n[usecase u]\nA = 1 @ 8 cows\n",
        // Overflow: 1e999 used to become +inf without complaint.
        "[soc]\nppeak = 1e999\nbpeak = 1e9\n[ip A]\naccel = 1\n"
        "bandwidth = 1e9\n",
        // Unknown unit / binary prefix in a rate.
        "[soc]\nppeak = 40 Qops/s\nbpeak = 1e9\n[ip A]\naccel = 1\n"
        "bandwidth = 1e9\n",
        // Empty-value and bare-name headers.
        "[soc]\nppeak =\nbpeak = 1e9\n",
        "[soc]\nppeak = 1e9\nbpeak = 1e9\n[ip]\naccel = 1\n"
        "bandwidth = 1e9\n",
        "[soc]\nppeak = 1e9\nbpeak = 1e9\n[ip A]\naccel = 1\n"
        "bandwidth = 1e9\n[usecase ]\n",
        // Duplicate sections that used to shadow silently.
        "[soc]\nppeak = 1e9\nbpeak = 1e9\n[ip A]\naccel = 1\n"
        "bandwidth = 1e9\n[usecase u]\nA = 1 @ 1\n[usecase u]\n"
        "A = 1 @ 2\n",
    };
    for (const char *doc : corpus) {
        SCOPED_TRACE(doc);
        try {
            parseSocConfig(doc);
            FAIL() << "expected ConfigError";
        } catch (const ConfigError &err) {
            EXPECT_GT(err.where().line, 0) << err.what();
            EXPECT_NE(std::string(err.what()).find(':'),
                      std::string::npos);
        }
    }
}

} // namespace
} // namespace gables
