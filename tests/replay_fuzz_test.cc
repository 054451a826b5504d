/**
 * @file
 * Deterministic mutation fuzzer for the replay bundle and RunReport
 * readers. Each replay-corpus bundle (tests/corpus) and one recorded
 * RunReport (tests/golden) is mutated: byte flips, truncation, nesting
 * past kJsonMaxDepth, duplicate keys, 400-digit numbers and huge
 * arrays. Every mutant goes through parseJson, parseBundle and
 * diffReports in-process, and must either parse or throw FatalError:
 * no abort, no hang, no sanitizer report (the suite runs under ASan
 * and UBSan in CI).
 *
 * GABLES_CORPUS_DIR and GABLES_GOLDEN_DIR are injected by
 * tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "replay/bundle.h"
#include "replay/replayer.h"
#include "telemetry/report_diff.h"
#include "util/json_reader.h"
#include "util/logging.h"

namespace {

using namespace gables;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The seeds: every corpus bundle, then one recorded RunReport. */
std::vector<std::string>
seedDocuments()
{
    std::vector<std::string> paths = replay::listBundles(GABLES_CORPUS_DIR);
    std::sort(paths.begin(), paths.end());
    paths.push_back(std::string(GABLES_GOLDEN_DIR) +
                    "/sim_sd835_4e8_report.json");
    std::vector<std::string> docs;
    for (const std::string &path : paths)
        docs.push_back(slurp(path));
    return docs;
}

/** Offsets where a bare scalar (number or literal) starts. */
std::vector<size_t>
scalarStarts(const std::string &text)
{
    std::vector<size_t> starts;
    for (size_t i = 1; i < text.size(); ++i) {
        char c = text[i];
        char before = text[i - 1];
        if ((c == '-' || (c >= '0' && c <= '9') || c == 't' || c == 'f' ||
             c == 'n') &&
            (before == ' ' || before == '[' || before == ':' ||
             before == '\n'))
            starts.push_back(i);
    }
    return starts;
}

/** Replace the scalar token at @p at with @p value. */
std::string
replaceScalar(const std::string &text, size_t at, const std::string &value)
{
    size_t end = text.find_first_of(",]}\n", at);
    if (end == std::string::npos)
        end = text.size();
    return text.substr(0, at) + value + text.substr(end);
}

/** Apply one mutation kind, chosen and shaped by @p rng. */
std::string
mutate(const std::string &seed, std::mt19937_64 &rng)
{
    std::string text = seed;
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    const std::vector<size_t> scalars = scalarStarts(text);
    switch (pick(6)) {
      case 0: // flip bits of a few bytes
        for (size_t n = 1 + pick(8); n > 0; --n)
            text[pick(text.size())] ^= static_cast<char>(1 << pick(8));
        return text;
      case 1: // truncate
        text.resize(pick(text.size()));
        return text;
      case 2: { // nest a scalar (or the whole document) 256-257 deep
        size_t depth = 256 + pick(2);
        std::string value =
            std::string(depth, '[') + "1" + std::string(depth, ']');
        if (scalars.empty() || pick(4) == 0)
            return std::string(depth, '[') + text + std::string(depth, ']');
        return replaceScalar(text, scalars[pick(scalars.size())], value);
      }
      case 3: { // a duplicate key, first or last in some object
        static const char *const kKeys[] = {
            "schema", "name",   "version", "command",   "argv",
            "report", "stats",  "value",   "exit_code", "tolerance",
            "ignore", "config", "config_files"};
        static const char *const kValues[] = {"{}", "[]", "1", "\"x\"",
                                              "null", "-0", "[[]]"};
        std::vector<size_t> objects;
        for (size_t i = 0; i < text.size(); ++i)
            if (text[i] == '{' || text[i] == '}')
                objects.push_back(i);
        if (objects.empty())
            return text;
        size_t at = objects[pick(objects.size())];
        std::string member = std::string("\"") + kKeys[pick(13)] +
                             "\": " + kValues[pick(7)];
        if (text[at] == '{')
            text.insert(at + 1, member + (text[at + 1] == '}' ? "" : ", "));
        else
            text.insert(at, (text[at - 1] == '{' ? "" : ", ") + member);
        return text;
      }
      case 4: { // a 400-digit number
        if (scalars.empty())
            return text;
        std::string digits(400, '0');
        for (char &d : digits)
            d = static_cast<char>('0' + pick(10));
        digits[0] = '7';
        static const char *const kShapes[] = {"", "0.", "-", "1e-"};
        std::string value = kShapes[pick(4)] + digits;
        return replaceScalar(text, scalars[pick(scalars.size())], value);
      }
      default: { // a huge array in place of a scalar
        if (scalars.empty())
            return text;
        std::string value = "[";
        const size_t n = 50000 + pick(50000);
        for (size_t i = 0; i < n; ++i)
            value += i == 0 ? "0" : ",0";
        value += ']';
        return replaceScalar(text, scalars[pick(scalars.size())], value);
      }
    }
}

/** Parse, decode and diff one mutant; @return true when it parsed. */
bool
exercise(const std::string &text, const JsonValue &original)
{
    JsonValue doc;
    try {
        doc = parseJson(text);
    } catch (const FatalError &) {
        return false;
    }
    // Every document matches itself, repeated keys included, and
    // diffs run to completion either way round.
    EXPECT_TRUE(telemetry::diffReports(doc, doc).identical());
    telemetry::diffReports(original, doc);
    try {
        replay::ReplayBundle bundle = replay::parseBundle(doc, "mutant");
        if (bundle.hasReport)
            telemetry::diffReports(bundle.report, original);
    } catch (const FatalError &) {
    }
    return true;
}

TEST(ReplayFuzz, MutatedBundlesAndReportsParseOrFailCleanly)
{
    const std::vector<std::string> seeds = seedDocuments();
    ASSERT_EQ(seeds.size(), 14u);
    std::mt19937_64 rng(26);
    size_t parsed = 0;
    size_t mutants = 0;
    for (const std::string &seed : seeds) {
        const JsonValue original = parseJson(seed);
        // The unmutated bundles decode; the report is not a bundle.
        EXPECT_TRUE(exercise(seed, original));
        for (int i = 0; i < 150; ++i) {
            std::string text = mutate(seed, rng);
            SCOPED_TRACE(text.substr(0, 200));
            parsed += exercise(text, original) ? 1 : 0;
            ++mutants;
        }
    }
    // Some mutants must survive parsing (duplicate keys, nesting at
    // the cap, long fractions), or the decode path went untested.
    EXPECT_GT(parsed, mutants / 10);
    EXPECT_LT(parsed, mutants);
}

} // namespace
