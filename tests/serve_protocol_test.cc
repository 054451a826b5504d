/**
 * @file
 * Protocol tests for the `gables serve` request processor
 * (serve/service.h), driven directly — no sockets: the error-code
 * contract (bad-request = 2, config/deadline/internal = 1), eval
 * parity with GablesModel::evaluate, config-file resolution, deadline
 * expiry, evaluator-cache counters, the stats RunReport, and batch
 * processing matching serial byte-for-byte.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/gables.h"
#include "core/serialize.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "soc/catalog.h"
#include "util/json_reader.h"
#include "util/logging.h"

namespace {

using namespace gables;

/** Build an inline request for a soc/usecase pair. */
std::string
modelRequest(int id, const std::string &op, const SocSpec &soc,
             const Usecase &usecase, const std::string &extra = "")
{
    std::ostringstream soc_json;
    writeJson(soc_json, soc);
    std::ostringstream usecase_json;
    writeJson(usecase_json, usecase);
    std::ostringstream req;
    req << "{\"id\": " << id << ", \"op\": \"" << op
        << "\", \"soc\": " << soc_json.str()
        << ", \"usecase\": " << usecase_json.str();
    if (!extra.empty())
        req << ", " << extra;
    req << "}";
    return req.str();
}

std::string
evalRequest(int id, const SocSpec &soc, const Usecase &usecase,
            const std::string &extra = "")
{
    return modelRequest(id, "eval", soc, usecase, extra);
}

Usecase
paperUsecase(double f, double i0, double i1)
{
    return Usecase("test",
                   {IpWork{1.0 - f, i0}, IpWork{f, i1}});
}

/** Parse a response and require the basic envelope. */
JsonValue
parseResponse(const std::string &line)
{
    JsonValue doc = parseJson(line);
    EXPECT_TRUE(doc.isObject()) << line;
    EXPECT_TRUE(doc.has("ok")) << line;
    return doc;
}

double
statValue(const JsonValue &report, const std::string &name)
{
    if (!report.at("stats").has(name))
        return 0.0;
    return report.at("stats").at(name).at("value").asNumber();
}

JsonValue
statsDoc(serve::ServeService &service)
{
    JsonValue response = parseResponse(
        service.handleLine("{\"id\": 99, \"op\": \"stats\"}"));
    EXPECT_TRUE(response.at("ok").asBool());
    return response.at("result");
}

TEST(ServeProtocol, PingAndEnvelope)
{
    serve::ServeService service{serve::ServeOptions{}};
    JsonValue doc = parseResponse(
        service.handleLine("{\"id\": 7, \"op\": \"ping\"}"));
    EXPECT_TRUE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("id").asNumber(), 7.0);
    EXPECT_TRUE(doc.at("result").at("pong").asBool());
}

TEST(ServeProtocol, MalformedJsonIsBadRequestWithNullId)
{
    serve::ServeService service{serve::ServeOptions{}};
    JsonValue doc =
        parseResponse(service.handleLine("this is not json"));
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_TRUE(doc.at("id").isNull());
    EXPECT_EQ(doc.at("error").at("code").asNumber(), 2.0);
    EXPECT_EQ(doc.at("error").at("kind").asString(), "bad-request");
}

TEST(ServeProtocol, UnknownOpSuggestsAndCounts)
{
    serve::ServeService service{serve::ServeOptions{}};
    JsonValue doc = parseResponse(
        service.handleLine("{\"id\": 1, \"op\": \"evla\"}"));
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("error").at("code").asNumber(), 2.0);
    EXPECT_NE(doc.at("error").at("message").asString().find("eval"),
              std::string::npos);
    EXPECT_EQ(statValue(statsDoc(service), "serve.op.unknown"), 1.0);
}

TEST(ServeProtocol, EvalMatchesModelExactly)
{
    serve::ServeService service{serve::ServeOptions{}};
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase usecase = paperUsecase(0.75, 8.0, 0.1);
    GablesResult expected = GablesModel::evaluate(soc, usecase);

    JsonValue doc = parseResponse(
        service.handleLine(evalRequest(1, soc, usecase)));
    ASSERT_TRUE(doc.at("ok").asBool());
    const JsonValue &result = doc.at("result");
    // The response formatter is round-trip exact, so the daemon's
    // number re-parses to the model's bits.
    EXPECT_EQ(result.at("attainable_ops_per_sec").asNumber(),
              expected.attainable);
    EXPECT_EQ(result.at("bottleneck_label").asString(),
              expected.bottleneckLabel(soc));
    EXPECT_FALSE(result.at("cache_hit").asBool());
}

TEST(ServeProtocol, EvalDetailCarriesPerIpTimings)
{
    serve::ServeService service{serve::ServeOptions{}};
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase usecase = paperUsecase(0.75, 8.0, 0.1);
    GablesResult expected = GablesModel::evaluate(soc, usecase);

    JsonValue doc = parseResponse(service.handleLine(
        evalRequest(1, soc, usecase, "\"detail\": true")));
    ASSERT_TRUE(doc.at("ok").asBool());
    const JsonValue &ips = doc.at("result").at("ips");
    ASSERT_EQ(ips.size(), expected.ips.size());
    for (size_t i = 0; i < ips.size(); ++i) {
        EXPECT_EQ(ips.at(i).at("time").asNumber(),
                  expected.ips[i].time);
        EXPECT_EQ(ips.at(i).at("name").asString(), soc.ip(i).name);
    }
}

TEST(ServeProtocol, ConfigFileResolutionAndNamedUsecase)
{
    std::string path = ::testing::TempDir() + "serve_cfg.ini";
    {
        std::ofstream out(path);
        out << "[soc]\nname = cfg\nppeak = 40 Gops/s\n"
               "bpeak = 10 GB/s\n"
               "[ip CPU]\naccel = 1\nbandwidth = 6 GB/s\n"
               "[ip GPU]\naccel = 5\nbandwidth = 15 GB/s\n"
               "[usecase 6b]\nCPU = 0.25 @ 8\nGPU = 0.75 @ 0.1\n";
    }
    serve::ServeService service{serve::ServeOptions{}};
    JsonValue doc = parseResponse(service.handleLine(
        "{\"id\": 1, \"op\": \"eval\", \"config\": \"" + path +
        "\", \"usecase\": \"6b\"}"));
    ASSERT_TRUE(doc.at("ok").asBool()) << doc.at("error").asString();
    // Figure 6b: 1.328 Gops/s.
    EXPECT_NEAR(doc.at("result")
                    .at("attainable_ops_per_sec")
                    .asNumber(),
                1.328e9, 1e6);
    std::remove(path.c_str());
}

TEST(ServeProtocol, BadConfigPathIsConfigErrorCode1)
{
    serve::ServeService service{serve::ServeOptions{}};
    JsonValue doc = parseResponse(service.handleLine(
        "{\"id\": 1, \"op\": \"eval\", "
        "\"config\": \"/no/such/file.ini\"}"));
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("error").at("code").asNumber(), 1.0);
    EXPECT_EQ(doc.at("error").at("kind").asString(), "config");
}

TEST(ServeProtocol, MalformedConfigCarriesLocatedDiagnostic)
{
    std::string path = ::testing::TempDir() + "serve_bad_cfg.ini";
    {
        std::ofstream out(path);
        out << "[soc]\nppeak = 40 Gops/s\nbpeek = 10 GB/s\n";
    }
    serve::ServeService service{serve::ServeOptions{}};
    JsonValue doc = parseResponse(service.handleLine(
        "{\"id\": 1, \"op\": \"eval\", \"config\": \"" + path +
        "\"}"));
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("error").at("code").asNumber(), 1.0);
    // The PR 3 diagnostics carry file:line and a suggestion; both
    // must survive into the wire error.
    std::string message = doc.at("error").at("message").asString();
    EXPECT_NE(message.find(":3:"), std::string::npos) << message;
    EXPECT_NE(message.find("bpeak"), std::string::npos) << message;
    std::remove(path.c_str());
}

TEST(ServeProtocol, DeadlineZeroExpiresDeterministically)
{
    serve::ServeService service{serve::ServeOptions{}};
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase usecase = paperUsecase(0.75, 8.0, 8.0);
    JsonValue doc = parseResponse(service.handleLine(
        evalRequest(1, soc, usecase, "\"deadline_ms\": 0")));
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("error").at("code").asNumber(), 1.0);
    EXPECT_EQ(doc.at("error").at("kind").asString(), "deadline");
    EXPECT_EQ(statValue(statsDoc(service), "serve.deadline_expired"),
              1.0);
}

TEST(ServeProtocol, NegativeDeadlineIsBadRequest)
{
    serve::ServeService service{serve::ServeOptions{}};
    JsonValue doc = parseResponse(service.handleLine(
        "{\"id\": 1, \"op\": \"ping\", \"deadline_ms\": -5}"));
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("error").at("code").asNumber(), 2.0);
}

TEST(ServeProtocol, CacheHitsMissesAndEvictions)
{
    serve::ServeOptions options;
    options.cacheCapacity = 2;
    serve::ServeService service{options};
    SocSpec soc = SocCatalog::paperTwoIp();

    // Three distinct pairs through a 2-entry cache: the first pair
    // is evicted, so its repeat misses again.
    Usecase a = paperUsecase(0.75, 8.0, 0.1);
    Usecase b = paperUsecase(0.75, 8.0, 8.0);
    Usecase c = paperUsecase(0.50, 4.0, 2.0);
    service.handleLine(evalRequest(1, soc, a)); // miss
    service.handleLine(evalRequest(2, soc, a)); // hit
    service.handleLine(evalRequest(3, soc, b)); // miss
    service.handleLine(evalRequest(4, soc, c)); // miss, evicts a
    service.handleLine(evalRequest(5, soc, a)); // miss again

    EXPECT_EQ(service.cache().hits(), 1u);
    EXPECT_EQ(service.cache().misses(), 4u);
    EXPECT_EQ(service.cache().evictions(), 2u);
    EXPECT_EQ(service.cache().size(), 2u);

    JsonValue report = statsDoc(service);
    EXPECT_EQ(statValue(report, "serve.cache_hits"), 1.0);
    EXPECT_EQ(statValue(report, "serve.cache_misses"), 4.0);
    EXPECT_EQ(statValue(report, "serve.cache_evictions"), 2.0);
}

TEST(ServeProtocol, CacheHitFlagFlipsOnRepeat)
{
    serve::ServeService service{serve::ServeOptions{}};
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase usecase = paperUsecase(0.75, 8.0, 0.1);
    JsonValue first = parseResponse(
        service.handleLine(evalRequest(1, soc, usecase)));
    JsonValue second = parseResponse(
        service.handleLine(evalRequest(2, soc, usecase)));
    EXPECT_FALSE(first.at("result").at("cache_hit").asBool());
    EXPECT_TRUE(second.at("result").at("cache_hit").asBool());
}

TEST(ServeProtocol, SweepRestoresTheCachedEvaluator)
{
    serve::ServeService service{serve::ServeOptions{}};
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase usecase = paperUsecase(0.75, 8.0, 0.1);
    GablesResult expected = GablesModel::evaluate(soc, usecase);

    JsonValue sweep = parseResponse(service.handleLine(modelRequest(
        1, "sweep", soc, usecase,
        "\"axis\": \"intensity\", \"ip\": 1, "
        "\"values\": [0.1, 1, 10, 100]")));
    ASSERT_TRUE(sweep.at("ok").asBool());
    ASSERT_EQ(sweep.at("result")
                  .at("attainable_ops_per_sec")
                  .size(),
              4u);

    // The sweep mutated intensity at IP 1 and restored it: the next
    // eval of the same pair hits the cache and still matches the
    // from-scratch model.
    JsonValue eval = parseResponse(
        service.handleLine(evalRequest(2, soc, usecase)));
    ASSERT_TRUE(eval.at("ok").asBool());
    EXPECT_TRUE(eval.at("result").at("cache_hit").asBool());
    EXPECT_EQ(
        eval.at("result").at("attainable_ops_per_sec").asNumber(),
        expected.attainable);
}

TEST(ServeProtocol, StatsReportParsesAsRunReport)
{
    serve::ServeService service{serve::ServeOptions{}};
    service.handleLine("{\"id\": 1, \"op\": \"ping\"}");
    JsonValue report = statsDoc(service);
    EXPECT_EQ(report.at("schema").at("name").asString(),
              "gables-run-report");
    EXPECT_EQ(report.at("generator").asString(), "gables serve");
    EXPECT_EQ(report.at("config").at("cache_capacity").asNumber(),
              64.0);
    EXPECT_GE(statValue(report, "serve.requests"), 1.0);
    EXPECT_GE(statValue(report, "serve.op.ping"), 1.0);

    // The pretty variant returned for the snapshot file parses to
    // the same document shape.
    JsonValue snapshot = parseJson(service.statsReportJson());
    EXPECT_EQ(snapshot.at("schema").at("name").asString(),
              "gables-run-report");
}

TEST(ServeProtocol, StatsExposeEvalCountAndCacheRate)
{
    serve::ServeService service{serve::ServeOptions{}};
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase usecase = paperUsecase(0.75, 8.0, 0.1);
    service.handleLine(evalRequest(1, soc, usecase)); // miss
    service.handleLine(evalRequest(2, soc, usecase)); // hit
    service.handleLine(modelRequest(
        3, "sweep", soc, usecase,
        "\"axis\": \"intensity\", \"ip\": 1, "
        "\"values\": [0.1, 1, 10, 100]"));

    JsonValue report = statsDoc(service);
    // Two evals plus four sweep grid points.
    EXPECT_EQ(statValue(report, "serve.model_evals"), 6.0);
    EXPECT_EQ(statValue(report, "serve.sweep_points"), 4.0);
    const double rate = statValue(report, "serve.cache_hit_rate");
    EXPECT_GT(rate, 0.0);
    EXPECT_LE(rate, 1.0);

}

TEST(ServeProtocol, BatchMatchesSerialByteForByte)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    std::vector<std::string> lines;
    for (int i = 0; i < 40; ++i) {
        Usecase usecase = paperUsecase(0.25 + 0.01 * (i % 5), 8.0,
                                       0.1 * (1 + i % 7));
        lines.push_back(evalRequest(i, soc, usecase));
    }
    lines.push_back("broken json");
    lines.push_back("{\"id\": 40, \"op\": \"ping\"}");

    serve::ServeOptions serial_opts;
    serial_opts.jobs = 1;
    serve::ServeService serial{serial_opts};
    std::vector<std::string> expected;
    for (const std::string &line : lines)
        expected.push_back(serial.handleLine(line));

    serve::ServeOptions pooled_opts;
    pooled_opts.jobs = 4;
    serve::ServeService pooled{pooled_opts};
    std::vector<std::string> actual = pooled.handleBatch(lines);

    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(actual[i], expected[i]) << "request " << i;

    // Telemetry commits in request order: both registries agree on
    // every counter the batch touched.
    EXPECT_EQ(statValue(statsDoc(pooled), "serve.op.eval"),
              statValue(statsDoc(serial), "serve.op.eval"));
    EXPECT_EQ(statValue(statsDoc(pooled), "serve.responses_error"),
              statValue(statsDoc(serial), "serve.responses_error"));
}

TEST(ServeProtocol, ShutdownSetsTheFlagAfterResponse)
{
    serve::ServeService service{serve::ServeOptions{}};
    EXPECT_FALSE(service.shutdownRequested());
    JsonValue doc = parseResponse(
        service.handleLine("{\"id\": 1, \"op\": \"shutdown\"}"));
    EXPECT_TRUE(doc.at("ok").asBool());
    EXPECT_TRUE(doc.at("result").at("shutting_down").asBool());
    EXPECT_TRUE(service.shutdownRequested());
}

TEST(ServeProtocol, RecordTeeCapturesRequestAndResponse)
{
    std::string path = ::testing::TempDir() + "serve_record.jsonl";
    std::remove(path.c_str());
    {
        serve::ServeOptions options;
        options.recordPath = path;
        serve::ServeService service{options};
        service.handleLine("{\"id\": 1, \"op\": \"ping\"}");
        service.handleLine("nonsense");
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    std::vector<JsonValue> records;
    while (std::getline(in, line))
        records.push_back(parseJson(line));
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].at("request").asString(),
              "{\"id\": 1, \"op\": \"ping\"}");
    EXPECT_NE(records[0].at("response").asString().find("pong"),
              std::string::npos);
    EXPECT_NE(records[1].at("response").asString().find("bad-request"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(ServeProtocol, ErrorCodeContractMatchesCli)
{
    // The wire "code" mirrors the CLI exit-code contract
    // (docs/ERRORS.md): usage-shaped problems are 2, data/config
    // problems are 1.
    EXPECT_EQ(serve::errorCode(serve::ErrorKind::BadRequest), 2);
    EXPECT_EQ(serve::errorCode(serve::ErrorKind::Config), 1);
    EXPECT_EQ(serve::errorCode(serve::ErrorKind::Deadline), 1);
    EXPECT_EQ(serve::errorCode(serve::ErrorKind::Internal), 1);
}

TEST(ServeCacheKey, ExactOnParametersAndNames)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase a = paperUsecase(0.75, 8.0, 0.1);
    std::string key_a = serve::cacheKey(soc, a);
    EXPECT_EQ(key_a, serve::cacheKey(soc, a));
    // Any parameter change (even in the last ulp) changes the key.
    Usecase b = paperUsecase(
        0.75, 8.0, std::nextafter(0.1, 1.0));
    EXPECT_NE(key_a, serve::cacheKey(soc, b));
    // So does a different SoC with identical numbers but new names.
    SocSpec renamed("other", soc.ppeak(), soc.bpeak(),
                    {soc.ip(0), soc.ip(1)});
    EXPECT_NE(key_a, serve::cacheKey(renamed, a));
}

} // namespace
