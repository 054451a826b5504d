/**
 * @file
 * Protocol tests for the `gables serve` request processor
 * (serve/service.h), driven directly — no sockets: the error-code
 * contract (bad-request = 2, config/deadline/internal = 1), eval
 * parity with GablesModel::evaluate, eval responses with per-IP
 * detail pinned byte for byte, one pair-rule text for eval and
 * explore, config-file resolution, deadline
 * expiry, evaluator-cache counters, the stats RunReport, and batch
 * processing matching serial byte-for-byte (cache_hit included).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/gables.h"
#include "core/serialize.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "soc/catalog.h"
#include "telemetry/span.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace {

using namespace gables;

/** Build an inline request for a soc/usecase pair. */
std::string
modelRequest(int id, const std::string &op, const SocSpec &soc,
             const Usecase &usecase, const std::string &extra = "")
{
    std::ostringstream req;
    req << "{\"id\": " << id << ", \"op\": \"" << op << "\", \"soc\": ";
    JsonWriter soc_json(req);
    writeJson(soc_json, soc);
    req << ", \"usecase\": ";
    JsonWriter usecase_json(req);
    writeJson(usecase_json, usecase);
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
    // The result outlives this function's parse: own the document.
    return response.at("result").owned();
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

TEST(ServeProtocol, DeeplyNestedLineIsOneBadRequest)
{
    // 200 000 '[' sits well under the 1 MiB line limit; the parser's
    // depth cap turns it into one located error, not a stack overflow.
    serve::ServeService service{serve::ServeOptions{}};
    std::string response =
        service.handleLine(std::string(200000, '['));
    EXPECT_EQ(response.find('\n'), response.find_last_of('\n'))
        << "expected exactly one response line";
    JsonValue doc = parseResponse(response);
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("error").at("kind").asString(), "bad-request");
    EXPECT_NE(doc.at("error").at("message").asString().find("nesting"),
              std::string::npos);

    JsonValue ping = parseResponse(
        service.handleLine("{\"id\": 8, \"op\": \"ping\"}"));
    EXPECT_TRUE(ping.at("result").at("pong").asBool());
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

/** One pinned eval pair: its name, model inputs and the bytes of its
 * response to a first eval with "detail". */
struct PinnedPair {
    const char *name;
    SocSpec soc;
    Usecase usecase;
    std::string response;
};

std::vector<PinnedPair>
pinnedPairs()
{
    const double inf = std::numeric_limits<double>::infinity();
    return {
        // Figure 6a: all work on the CPU, the GPU idle.
        {"idle-ip", SocCatalog::paperTwoIp(), paperUsecase(0.0, 8.0, 0.1),
         R"j({"id": 1, "ok": true,)j"
         R"j( "result": {"attainable_ops_per_sec":40000000000,)j"
         R"j("bottleneck":"IP compute",)j"
         R"j("bottleneck_label":"CPU compute (Ai*Ppeak)",)j"
         R"j("cache_hit":false,"memory_time":1.25e-11,)j"
         R"j("memory_perf_bound":80000000000,"average_intensity":8,)j"
         R"j("total_data_bytes_per_op":0.125,"ips":[{"name":"CPU",)j"
         R"j("compute_time":2.5e-11,"data_bytes":0.125,)j"
         R"j("transfer_time":2.0833333333333332e-11,"time":2.5e-11,)j"
         R"j("perf_bound":40000000000},{"name":"GPU","compute_time":0,)j"
         R"j("data_bytes":0,"transfer_time":0,"time":0,)j"
         R"j("perf_bound":null}]}})j"},
        // A pure-compute GPU: infinite intensity, no off-IP traffic.
        {"inf-intensity", SocCatalog::snapdragon835(),
         Usecase("inf", {IpWork{0.25, 4.0}, IpWork{0.75, inf},
                         IpWork{0.0, 1.0}}),
         R"j({"id": 2, "ok": true,)j"
         R"j( "result": {"attainable_ops_per_sec":30000000000,)j"
         R"j("bottleneck":"IP compute",)j"
         R"j("bottleneck_label":"CPU compute (Ai*Ppeak)",)j"
         R"j("cache_hit":false,"memory_time":2.0973154362416107e-12,)j"
         R"j("memory_perf_bound":476800000000,"average_intensity":16,)j"
         R"j("total_data_bytes_per_op":0.0625,"ips":[{"name":"CPU",)j"
         R"j("compute_time":3.3333333333333335e-11,"data_bytes":0.0625,)j"
         R"j("transfer_time":4.1390728476821188e-12,)j"
         R"j("time":3.3333333333333335e-11,"perf_bound":30000000000},)j"
         R"j({"name":"GPU","compute_time":2.1453089244851258e-12,)j"
         R"j("data_bytes":0,"transfer_time":0,)j"
         R"j("time":2.1453089244851258e-12,)j"
         R"j("perf_bound":466133333333.33337},{"name":"DSP",)j"
         R"j("compute_time":0,"data_bytes":0,"transfer_time":0,"time":0,)j"
         R"j("perf_bound":null}]}})j"},
        // Figure 6b: the memory interface binds.
        {"memory-bound", SocCatalog::paperTwoIp(),
         paperUsecase(0.75, 8.0, 0.1),
         R"j({"id": 3, "ok": true,)j"
         R"j( "result": {"attainable_ops_per_sec":1327800829.8755186,)j"
         R"j("bottleneck":"memory interface",)j"
         R"j("bottleneck_label":"memory interface (Bpeak)",)j"
         R"j("cache_hit":false,"memory_time":7.53125e-10,)j"
         R"j("memory_perf_bound":1327800829.8755186,)j"
         R"j("average_intensity":0.13278008298755187,)j"
         R"j("total_data_bytes_per_op":7.53125,"ips":[{"name":"CPU",)j"
         R"j("compute_time":6.25e-12,"data_bytes":0.03125,)j"
         R"j("transfer_time":5.2083333333333331e-12,"time":6.25e-12,)j"
         R"j("perf_bound":160000000000},{"name":"GPU",)j"
         R"j("compute_time":3.75e-12,"data_bytes":7.5,)j"
         R"j("transfer_time":5e-10,"time":5e-10,)j"
         R"j("perf_bound":1999999999.9999998}]}})j"},
        // High reuse everywhere: the CPU's compute roof binds.
        {"compute-bound", SocCatalog::paperTwoIp(),
         paperUsecase(0.5, 64.0, 64.0),
         R"j({"id": 4, "ok": true,)j"
         R"j( "result": {"attainable_ops_per_sec":80000000000,)j"
         R"j("bottleneck":"IP compute",)j"
         R"j("bottleneck_label":"CPU compute (Ai*Ppeak)",)j"
         R"j("cache_hit":false,"memory_time":1.5625e-12,)j"
         R"j("memory_perf_bound":640000000000,"average_intensity":64,)j"
         R"j("total_data_bytes_per_op":0.015625,"ips":[{"name":"CPU",)j"
         R"j("compute_time":1.25e-11,"data_bytes":0.0078125,)j"
         R"j("transfer_time":1.3020833333333333e-12,"time":1.25e-11,)j"
         R"j("perf_bound":80000000000},{"name":"GPU",)j"
         R"j("compute_time":2.5e-12,"data_bytes":0.0078125,)j"
         R"j("transfer_time":5.2083333333333335e-13,"time":2.5e-12,)j"
         R"j("perf_bound":400000000000}]}})j"},
    };
}

// A miss and a hit render the same bytes but for "cache_hit".
TEST(ServeProtocol, EvalDetailResponsesArePinned)
{
    serve::ServeService service{serve::ServeOptions{}};
    for (bool hit : {false, true}) {
        int id = 1;
        for (const PinnedPair &p : pinnedPairs()) {
            std::string want = p.response;
            if (hit)
                want.replace(want.find("\"cache_hit\":false"), 17,
                             "\"cache_hit\":true");
            EXPECT_EQ(service.handleLine(evalRequest(
                          id++, p.soc, p.usecase, "\"detail\": true")),
                      want)
                << p.name << (hit ? " hit" : " miss");
        }
    }
}

TEST(ServeProtocol, NonBooleanDetailIsBadRequest)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase usecase = paperUsecase(0.75, 8.0, 0.1);
    for (const char *detail : {"\"yes\"", "1", "null"}) {
        serve::ServeService service{serve::ServeOptions{}};
        JsonValue doc = parseResponse(service.handleLine(evalRequest(
            1, soc, usecase, std::string("\"detail\": ") + detail)));
        EXPECT_FALSE(doc.at("ok").asBool()) << detail;
        EXPECT_EQ(doc.at("error").at("code").asNumber(), 2.0) << detail;
        EXPECT_NE(
            doc.at("error").at("message").asString().find("\"detail\""),
            std::string::npos)
            << detail;
    }
}

TEST(ServeProtocol, DetailFalseMatchesNoDetailByteForByte)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase usecase = paperUsecase(0.75, 8.0, 0.1);
    serve::ServeService plain{serve::ServeOptions{}};
    serve::ServeService explicit_false{serve::ServeOptions{}};
    EXPECT_EQ(explicit_false.handleLine(
                  evalRequest(1, soc, usecase, "\"detail\": false")),
              plain.handleLine(evalRequest(1, soc, usecase)));
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
    std::string message(doc.at("error").at("message").asString());
    EXPECT_NE(message.find(":3:"), std::string::npos) << message;
    EXPECT_NE(message.find("bpeak"), std::string::npos) << message;
    std::remove(path.c_str());
}

TEST(ServeProtocol, ExploreAndEvalGiveThePairRuleText)
{
    // Both ops reach the one pair rule (checkPair), so a usecase with
    // more entries than the SoC has IPs is the same config error.
    serve::ServeService service{serve::ServeOptions{}};
    const SocSpec soc = SocCatalog::paperTwoIp();
    const Usecase three("three", {IpWork{0.5, 4.0}, IpWork{0.3, 16.0},
                                  IpWork{0.2, 1.0}});
    const std::string want = "usecase 'three' has 3 IP entries but SoC '" +
                             soc.name() + "' has 2 IPs";
    for (const std::string &request :
         {evalRequest(1, soc, three),
          modelRequest(2, "explore", soc, three,
                       "\"sweep\": [{\"knob\": \"bpeak\", "
                       "\"values\": [1e10, 2e10]}]")}) {
        SCOPED_TRACE(request);
        JsonValue doc = parseResponse(service.handleLine(request));
        EXPECT_FALSE(doc.at("ok").asBool());
        EXPECT_EQ(doc.at("error").at("kind").asString(), "config");
        EXPECT_EQ(doc.at("error").at("code").asNumber(), 1.0);
        EXPECT_EQ(doc.at("error").at("message").asString(), want);
    }
}

TEST(ServeProtocol, OverflowingExploreCostIsConfigError)
{
    // Mixed-sign coefficients whose products overflow would give NaN
    // costs; the explorer refuses the cost model before the grid.
    serve::ServeService service{serve::ServeOptions{}};
    const SocSpec soc = SocCatalog::paperTwoIp();
    JsonValue doc = parseResponse(service.handleLine(modelRequest(
        1, "explore", soc, paperUsecase(0.75, 8.0, 0.1),
        "\"cost\": {\"per_acceleration\": 0, \"per_bpeak\": 1e300, "
        "\"per_ip_bandwidth\": -1e300}, \"sweep\": ["
        "{\"knob\": \"bpeak\", \"values\": [1e9, 2e9, 3e9]}, "
        "{\"knob\": \"ip_bandwidth\", \"ip\": 1, "
        "\"values\": [1e9, 2e9, 3e9]}]")));
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("error").at("kind").asString(), "config");
    EXPECT_EQ(doc.at("error").at("code").asNumber(), 1.0);
    EXPECT_EQ(doc.at("error").at("message").asString(),
              "cost model overflows on this grid: the costs of its "
              "largest designs are not finite");
}

TEST(ServeProtocol, ExploreRefusesABadKnobValueInAPrunedSubgrid)
{
    // A negative Bpeak in the third subgrid of a 600-value knob. With
    // Bpeak priced negatively, more bandwidth is cheaper and faster,
    // so the first subgrid's best design dominates the rest and
    // pruning skips the subgrid that holds the bad value; the value
    // is refused all the same, with the pack's text.
    serve::ServeService service{serve::ServeOptions{}};
    std::ostringstream knob;
    knob << "\"sweep\": [{\"knob\": \"bpeak\", \"values\": [";
    for (int i = 0; i < 600; ++i)
        knob << (i ? ", " : "") << (i == 400 ? -1.0 : (600 - i) * 1e9);
    knob << "]}], \"cost\": {\"per_acceleration\": 1, "
            "\"per_bpeak\": -1e-9}";
    JsonValue doc = parseResponse(service.handleLine(
        modelRequest(1, "explore", SocCatalog::paperTwoIp(),
                     paperUsecase(0.75, 8.0, 0.1), knob.str())));
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("error").at("kind").asString(), "config");
    EXPECT_EQ(doc.at("error").at("code").asNumber(), 1.0);
    EXPECT_EQ(doc.at("error").at("message").asString(),
              "evaluator: Bpeak must be positive and finite");
}

/** @return How often each span under the root of @p node ran. */
void
spanCounts(const telemetry::ProfileNode &node,
           std::map<std::string, uint64_t> &counts)
{
    for (const telemetry::ProfileNode &child : node.children) {
        counts[child.name] += child.count;
        spanCounts(child, counts);
    }
}

TEST(ServeProtocol, PhaseSpansCoverTheRequest)
{
    const SocSpec soc = SocCatalog::paperTwoIp();
    const std::string eval = evalRequest(1, soc, paperUsecase(0.75, 8, 0.1));
    {
        serve::ServeService service{serve::ServeOptions{}};
        telemetry::SpanTracer tracer;
        telemetry::SpanTracer::setActive(&tracer);
        service.handleLine(eval);
        telemetry::SpanTracer::setActive(nullptr);
        std::map<std::string, uint64_t> counts;
        spanCounts(tracer.snapshot(), counts);
        for (const char *span :
             {"serve.parse", "serve.resolve", "serve.cache", "serve.run"})
            EXPECT_EQ(counts[span], 1u) << span;
    }
    {
        serve::ServeService service{serve::ServeOptions{}};
        telemetry::SpanTracer tracer;
        telemetry::SpanTracer::setActive(&tracer);
        service.handleLine("{\"op\": \"eval\", ");
        telemetry::SpanTracer::setActive(nullptr);
        std::map<std::string, uint64_t> counts;
        spanCounts(tracer.snapshot(), counts);
        EXPECT_EQ(counts["serve.parse"], 1u);
        EXPECT_EQ(counts.count("serve.resolve"), 0u);
        EXPECT_EQ(counts.count("serve.cache"), 0u);
        EXPECT_EQ(counts.count("serve.run"), 0u);
    }
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

/** @return The points of a one-input sweep of @p axis at IP 1. */
std::vector<double>
sweepPoints(serve::ServeService &service, const SocSpec &soc,
            const Usecase &usecase, const std::string &axis,
            const std::vector<double> &values)
{
    std::ostringstream extra;
    extra << std::setprecision(17) << "\"axis\": \"" << axis
          << "\", \"ip\": 1, \"values\": [";
    for (size_t i = 0; i < values.size(); ++i)
        extra << (i ? ", " : "") << values[i];
    extra << "]";
    JsonValue doc = parseResponse(service.handleLine(
        modelRequest(1, "sweep", soc, usecase, extra.str())));
    EXPECT_TRUE(doc.at("ok").asBool());
    std::vector<double> points;
    for (const JsonValue &p :
         doc.at("result").at("attainable_ops_per_sec").items())
        points.push_back(p.asNumber());
    return points;
}

// Each point of a sweep, over a full pack and a partial tail, is the
// model's value for the pair with that one input replaced, bit for
// bit.
TEST(ServeProtocol, SweepMatchesTheModelPointByPoint)
{
    serve::ServeService service{serve::ServeOptions{}};
    // 11 values: one full pack plus a 3-lane tail at kGridWidth = 8.
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase good_reuse = paperUsecase(0.75, 8.0, 8.0);
    std::vector<double> bpeaks = {5e9,  10e9, 15e9, 20e9, 25e9, 30e9,
                                  40e9, 50e9, 60e9, 70e9, 80e9};
    std::vector<double> points =
        sweepPoints(service, soc, good_reuse, "bpeak", bpeaks);
    ASSERT_EQ(points.size(), bpeaks.size());
    for (size_t i = 0; i < bpeaks.size(); ++i)
        EXPECT_EQ(points[i],
                  GablesModel::evaluate(soc.with(Param::bpeak(), bpeaks[i]),
                                        good_reuse)
                      .attainable)
            << "bpeak " << bpeaks[i];
    // Figure 6d: flat from the sufficient 20 GB/s on.
    EXPECT_DOUBLE_EQ(points[3], 160e9);
    EXPECT_DOUBLE_EQ(points.back(), 160e9);

    SocSpec soc30 = soc.with(Param::bpeak(), 30e9);
    Usecase low_reuse = paperUsecase(0.75, 8.0, 0.1);
    std::vector<double> intensities;
    for (int i = 0; i < 11; ++i)
        intensities.push_back(0.1 + 0.79 * i);
    points = sweepPoints(service, soc30, low_reuse, "intensity",
                         intensities);
    ASSERT_EQ(points.size(), intensities.size());
    for (size_t i = 0; i < intensities.size(); ++i)
        EXPECT_EQ(points[i],
                  GablesModel::evaluate(
                      soc30,
                      low_reuse.withWork(1, IpWork{0.75, intensities[i]}))
                      .attainable)
            << "I1 " << intensities[i];
    // Figure 6c -> 6d: raising I1 from 0.1 to 8 lifts 2 to 160 Gops/s.
    EXPECT_DOUBLE_EQ(points.front(), 2e9);
    EXPECT_DOUBLE_EQ(points.back(), 160e9);
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

TEST(ServeProtocol, StatsListEveryStatByNameAndKindInOrder)
{
    serve::ServeService service{serve::ServeOptions{}};
    const JsonValue report = statsDoc(service);
    std::vector<std::string> stats;
    for (const auto &[name, stat] : report.at("stats").members())
        stats.push_back(std::string(name) + " " +
                        std::string(stat.at("kind").asString()));
    const std::vector<std::string> expected = {
        "serve.requests counter",
        "serve.responses_ok counter",
        "serve.responses_error counter",
        "serve.deadline_expired counter",
        "serve.sweep_points counter",
        "serve.model_evals counter",
        "serve.bytes_in counter",
        "serve.bytes_out counter",
        "serve.request_seconds distribution",
        "serve.op.ping counter",
        "serve.op.eval counter",
        "serve.op.sweep counter",
        "serve.op.explore counter",
        "serve.op.advise counter",
        "serve.op.stats counter",
        "serve.op.shutdown counter",
        "serve.op.unknown counter",
        "serve.op.invalid counter",
        "serve.cache_hits gauge",
        "serve.cache_misses gauge",
        "serve.cache_evictions gauge",
        "serve.cache_size gauge",
        "serve.cache_hit_rate gauge",
    };
    EXPECT_EQ(stats, expected);
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

// Four workers share two hot cache entries: evals with and without
// detail render the stored results while sweeps compile their own
// packs from the stored pairs, concurrently. The TSan job runs this.
TEST(ServeProtocol, HotPairBatchAtFourJobsMatchesOneJob)
{
    const std::vector<std::pair<SocSpec, Usecase>> hot = {
        {SocCatalog::paperTwoIp(), paperUsecase(0.75, 8.0, 0.1)},
        {SocCatalog::snapdragon835(),
         Usecase("mix", {IpWork{0.5, 4.0}, IpWork{0.3, 16.0},
                         IpWork{0.2, 1.0}})}};
    std::vector<std::string> lines;
    for (int i = 0; i < 64; ++i) {
        const auto &[soc, usecase] = hot[i % 2];
        switch ((i / 2) % 3) {
        case 0:
            lines.push_back(evalRequest(i, soc, usecase));
            break;
        case 1:
            lines.push_back(
                evalRequest(i, soc, usecase, "\"detail\": true"));
            break;
        default:
            lines.push_back(modelRequest(
                i, "sweep", soc, usecase,
                "\"axis\": \"intensity\", \"ip\": 1, \"values\": "
                "[0.01, 0.1, 0.5, 1, 2, 4, 8, 16, 32, 64, 128]"));
            break;
        }
    }

    serve::ServeOptions serial_opts;
    serial_opts.jobs = 1;
    serve::ServeService serial{serial_opts};
    std::vector<std::string> expected = serial.handleBatch(lines);

    serve::ServeOptions pooled_opts;
    pooled_opts.jobs = 4;
    serve::ServeService pooled{pooled_opts};
    std::vector<std::string> actual = pooled.handleBatch(lines);

    ASSERT_EQ(actual.size(), lines.size());
    ASSERT_EQ(expected.size(), lines.size());
    for (size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]) << "request " << i;
        EXPECT_TRUE(parseResponse(actual[i]).at("ok").asBool())
            << actual[i];
    }
    EXPECT_EQ(pooled.cache().misses(), 2u);
    EXPECT_EQ(pooled.cache().hits(), lines.size() - 2);
}

TEST(ServeProtocol, BatchOfOneKeyMissesOnlyOnItsFirstLine)
{
    // Forty evals of one pair: a batch looks the cache up in request
    // order, so the first line compiles and every later one hits,
    // however the pool schedules them.
    SocSpec soc = SocCatalog::paperTwoIp();
    std::string line = evalRequest(7, soc, paperUsecase(0.25, 8.0, 0.1));
    std::vector<std::string> lines(40, line);

    serve::ServeOptions options;
    options.jobs = 4;
    serve::ServeService service{options};
    std::vector<std::string> responses = service.handleBatch(lines);

    ASSERT_EQ(responses.size(), lines.size());
    for (size_t i = 0; i < responses.size(); ++i) {
        JsonValue doc = parseResponse(responses[i]);
        ASSERT_TRUE(doc.at("ok").asBool()) << responses[i];
        EXPECT_EQ(doc.at("result").at("cache_hit").asBool(), i > 0)
            << "request " << i;
    }
    EXPECT_EQ(service.cache().misses(), 1u);
    EXPECT_EQ(service.cache().hits(), lines.size() - 1);
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
