/**
 * @file
 * Deterministic protocol fuzzer for the `gables serve` request
 * processor. One request per replay-corpus bundle (tests/corpus) is
 * mutated: byte flips, truncation, deep nesting, duplicate keys, and
 * huge, tiny, non-finite and negative-zero numbers. Every line goes
 * through ServeService::handleLine and must get back exactly one
 * well-formed JSON response line. A numeric id is echoed through the
 * JSON number rule, so it must read back bit for bit.
 *
 * GABLES_CORPUS_DIR is injected by tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "replay/replayer.h"
#include "serve/service.h"
#include "soc/catalog.h"
#include "util/json_reader.h"
#include "util/logging.h"

namespace {

using namespace gables;

/** The value after @p flag in @p argv, or @p fallback. */
std::string
flagValue(const JsonValue &argv, const std::string &flag,
          const std::string &fallback)
{
    for (size_t i = 0; i + 1 < argv.size(); ++i)
        if (argv.at(i).asString() == flag)
            return std::string(argv.at(i + 1).asString());
    return fallback;
}

/**
 * One request per corpus bundle: the op its subcommand maps to (eval
 * for commands the daemon does not serve) on the SoC its argv names.
 */
std::vector<std::string>
seedRequests()
{
    std::vector<std::string> bundles =
        replay::listBundles(GABLES_CORPUS_DIR);
    std::sort(bundles.begin(), bundles.end());
    std::vector<std::string> seeds;
    for (const std::string &path : bundles) {
        std::ifstream in(path);
        std::stringstream text;
        text << in.rdbuf();
        const JsonValue bundle = parseJson(text.str());
        const JsonValue command = bundle.at("command");
        std::string op(command.at("subcommand").asString());
        if (op != "sweep" && op != "explore" && op != "advise")
            op = "eval";
        const JsonValue &argv = command.at("argv");
        const SocSpec soc =
            SocCatalog::byName(flagValue(argv, "--soc", "paper")).spec();
        std::vector<IpWork> work(soc.numIps(), IpWork{0.0, 1.0});
        work[0] = IpWork{0.25, 8.0};
        work[1] = IpWork{0.75, 0.5};
        std::ostringstream req;
        req << "{\"id\": " << seeds.size() + 1 << ", \"op\": \"" << op
            << "\", \"soc\": ";
        JsonWriter soc_json(req);
        writeJson(soc_json, soc);
        req << ", \"usecase\": ";
        JsonWriter usecase_json(req);
        writeJson(usecase_json, Usecase("fuzz", work));
        if (op == "sweep")
            req << ", \"axis\": \"intensity\", \"ip\": 0, \"values\": "
                   "[0.125, 1, 8, 64]";
        if (op == "explore")
            req << ", \"sweep\": [{\"knob\": \"bpeak\", \"values\": "
                   "[1e9, 2e9, 4e9]}]";
        req << "}";
        seeds.push_back(req.str());
    }
    return seeds;
}

/** Number tokens at and past the edges of the double format. */
const char *const kOddNumbers[] = {
    "5e-324",   "4.9406564584124654e-324", "2.2250738585072014e-308",
    "2.2250738585072009e-308", "1.7976931348623157e308",
    "1.7976931348623157e+308", "1.7976931348623159e308", "1e400",
    "-1e400",   "1e-400",  "-0",  "-0.0",  "0e0",  "1e-7",  "0.1",
    "9007199254740993",   "123456789012345678901234567890",
    "NaN",      "nan",     "Infinity",       "-Infinity", "inf",
    "1e",       "--1",     "0x10",           "1.5.5",     "+1"};

/** Replace the value of the first "id" member with @p token. */
std::string
withId(const std::string &line, const std::string &token)
{
    size_t key = line.find("\"id\": ");
    if (key == std::string::npos)
        return line;
    size_t begin = key + 6;
    size_t end = line.find(',', begin);
    return line.substr(0, begin) + token + line.substr(end);
}

/** Apply one of the mutation kinds, chosen and shaped by @p rng. */
std::string
mutate(const std::string &seed, std::mt19937_64 &rng)
{
    std::string line = seed;
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    switch (pick(6)) {
      case 0: // flip bits of a few bytes
        for (size_t n = 1 + pick(4); n > 0; --n)
            line[pick(line.size())] ^= static_cast<char>(1 << pick(8));
        break;
      case 1: // truncate
        line.resize(pick(line.size()));
        break;
      case 2: { // nest: the whole line, the id, or the soc
        static const size_t kDepths[] = {1, 255, 256, 257, 5000};
        size_t depth = kDepths[pick(5)];
        std::string open(depth, '['), close(depth, ']');
        if (rng() % 2)
            line = open + line + close;
        else if (rng() % 2)
            line = withId(line, open + "1" + close);
        else {
            size_t soc = line.find("\"soc\": ") + 7;
            std::string nested;
            for (size_t i = 0; i < depth; ++i)
                nested += "{\"a\": ";
            line.insert(soc, nested + "1" + std::string(depth, '}') +
                                 ", \"b\": ");
        }
        break;
      }
      case 3: { // duplicate a key, first or last
        static const char *const kDuplicates[] = {
            "\"id\": -0", "\"op\": \"ping\"", "\"op\": \"stats\"",
            "\"soc\": {}", "\"usecase\": []", "\"id\": 1e308"};
        std::string member = kDuplicates[pick(6)];
        if (rng() % 2)
            line.insert(1, member + ", ");
        else
            line.insert(line.size() - 1, ", " + member);
        break;
      }
      case 4: // an odd id
        line = withId(line, kOddNumbers[pick(std::size(kOddNumbers))]);
        break;
      default: { // an odd number anywhere a digit starts a token
        std::vector<size_t> starts;
        for (size_t i = 1; i < line.size(); ++i)
            if (std::isdigit(static_cast<unsigned char>(line[i])) &&
                (line[i - 1] == ' ' || line[i - 1] == '['))
                starts.push_back(i);
        size_t at = starts[pick(starts.size())];
        size_t end = line.find_first_of(",]}", at);
        line.replace(at, end - at,
                     kOddNumbers[pick(std::size(kOddNumbers))]);
      }
    }
    return line;
}

/** The random id tokens: any finite double, printed exactly. */
std::string
randomIdToken(std::mt19937_64 &rng)
{
    double v = 0.0;
    do
        v = std::bit_cast<double>(rng());
    while (!std::isfinite(v));
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

/**
 * Check that @p response is one well-formed response line for @p
 * request: an object with an id, a boolean ok, and exactly one of
 * result and error; a numeric request id must come back bit for bit.
 */
void
expectOneResponse(const std::string &request, const std::string &response)
{
    ASSERT_EQ(response.find('\n'), std::string::npos) << request;
    JsonValue doc;
    try {
        doc = parseJson(response);
    } catch (const FatalError &err) {
        FAIL() << "unparsable response '" << response << "' to '"
               << request << "': " << err.what();
    }
    ASSERT_TRUE(doc.isObject()) << response;
    ASSERT_TRUE(doc.has("id")) << response;
    ASSERT_TRUE(doc.has("ok") && doc.at("ok").isBool()) << response;
    bool ok = doc.at("ok").asBool();
    EXPECT_EQ(doc.has("result"), ok) << response;
    EXPECT_EQ(doc.has("error"), !ok) << response;
    if (!ok) {
        double code = doc.at("error").at("code").asNumber();
        EXPECT_TRUE(code == 1 || code == 2) << response;
        EXPECT_TRUE(doc.at("error").at("kind").isString()) << response;
    }

    JsonValue req;
    try {
        req = parseJson(request);
    } catch (const FatalError &) {
        EXPECT_TRUE(doc.at("id").isNull()) << response;
        return;
    }
    if (req.isObject() && req.has("id") && req.at("id").isNumber()) {
        ASSERT_TRUE(doc.at("id").isNumber()) << response;
        EXPECT_EQ(std::bit_cast<uint64_t>(doc.at("id").asNumber()),
                  std::bit_cast<uint64_t>(req.at("id").asNumber()))
            << "id of '" << request << "' came back in '" << response
            << "'";
    }
}

/**
 * Captures the log while thousands of bad requests are served. A
 * rejected request is answered, never logged, so the capture must
 * stay empty: a daemon whose stderr nobody drains would block on the
 * first full pipe.
 */
class ServeFuzz : public ::testing::Test
{
  protected:
    void SetUp() override { setLogSink(&log_); }
    void TearDown() override
    {
        setLogSink(nullptr);
        EXPECT_EQ(log_.str(), "");
    }

  private:
    std::ostringstream log_;
};

TEST_F(ServeFuzz, SeedRequestsAllSucceed)
{
    serve::ServeService service(serve::ServeOptions{});
    std::vector<std::string> seeds = seedRequests();
    ASSERT_GE(seeds.size(), 13u);
    for (const std::string &seed : seeds) {
        std::string response = service.handleLine(seed);
        expectOneResponse(seed, response);
        EXPECT_TRUE(parseJson(response).at("ok").asBool()) << response;
    }
}

TEST_F(ServeFuzz, EveryMutatedLineGetsOneWellFormedResponse)
{
    serve::ServeService service(serve::ServeOptions{});
    std::vector<std::string> seeds = seedRequests();
    std::mt19937_64 rng(18);
    size_t lines = 0;
    for (int round = 0; round < 300; ++round) {
        for (const std::string &seed : seeds) {
            std::string line = mutate(seed, rng);
            expectOneResponse(line, service.handleLine(line));
            ++lines;
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
    EXPECT_GE(lines, 3900u);
}

TEST_F(ServeFuzz, NumericIdsEchoBitForBit)
{
    serve::ServeService service(serve::ServeOptions{});
    const std::string ping = "{\"id\": 0, \"op\": \"ping\"}";
    std::mt19937_64 rng(2019);
    std::vector<std::string> tokens(std::begin(kOddNumbers),
                                    std::end(kOddNumbers));
    for (int i = 0; i < 20000; ++i)
        tokens.push_back(randomIdToken(rng));
    for (const std::string &token : tokens) {
        std::string line = withId(ping, token);
        expectOneResponse(line, service.handleLine(line));
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // The renderer's edges, spelled out.
    auto idOf = [&service, &ping](const std::string &token) {
        std::string response = service.handleLine(withId(ping, token));
        return response.substr(7, response.find(',') - 7);
    };
    EXPECT_EQ(idOf("5e-324"), "4.94065645841e-324");
    EXPECT_EQ(idOf("1.7976931348623157e308"), "1.7976931348623157e+308");
    EXPECT_EQ(idOf("-0"), "-0");
    EXPECT_EQ(idOf("1e-7"), "1e-07");
    EXPECT_EQ(idOf("1e400"), "null");
}

} // namespace
