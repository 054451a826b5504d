/**
 * @file
 * Golden-file test of the Chrome Trace Event output: a small
 * deterministic recorder must serialize byte-for-byte to a known
 * string, and a full simulator trace (slices + counter tracks) must
 * parse back as structurally valid Trace Event JSON.
 */

#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/soc.h"
#include "sim/trace.h"
#include "soc/catalog.h"
#include "telemetry/stats.h"
#include "util/json_reader.h"

namespace gables {
namespace sim {
namespace {

/**
 * The exact serialization of two slices on two tracks plus two
 * counter samples. Metadata events are sorted by track name
 * (CPU.link before DRAM) while tids follow first appearance
 * (DRAM=1, CPU.link=2); counter events trail the slices.
 */
const char *kGoldenTrace =
    "{\"traceEvents\":["
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
    "\"args\":{\"name\":\"CPU.link\"}},"
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
    "\"args\":{\"name\":\"DRAM\"}},"
    "{\"name\":\"DRAM\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
    "\"ts\":0,\"dur\":1},"
    "{\"name\":\"xfer\",\"ph\":\"X\",\"pid\":1,\"tid\":2,"
    "\"ts\":1,\"dur\":2},"
    "{\"name\":\"DRAM.queue\",\"ph\":\"C\",\"pid\":1,\"ts\":0,"
    "\"args\":{\"value\":1}},"
    "{\"name\":\"DRAM.queue\",\"ph\":\"C\",\"pid\":1,\"ts\":1.5,"
    "\"args\":{\"value\":2}}"
    "],\"displayTimeUnit\":\"ns\"}";

TEST(TraceGolden, SmallTraceMatchesByteForByte)
{
    TraceRecorder rec;
    rec.record("DRAM", 0.0, 1e-6);
    rec.record("CPU.link", 1e-6, 2e-6, "xfer");
    rec.counter("DRAM.queue", 0.0, 1.0);
    rec.counter("DRAM.queue", 1.5e-6, 2.0);

    std::ostringstream out;
    rec.writeChromeTrace(out);
    EXPECT_EQ(out.str(), kGoldenTrace);
}

TEST(TraceGolden, GoldenStringIsValidJson)
{
    JsonValue root = parseJson(kGoldenTrace);
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.at("displayTimeUnit").asString(), "ns");
    const JsonValue &events = root.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_EQ(events.size(), 6u);
    EXPECT_EQ(events.at(4).at("ph").asString(), "C");
    EXPECT_DOUBLE_EQ(
        events.at(5).at("args").at("value").asNumber(), 2.0);
}

/**
 * Run a real simulation with tracing + epoch counters and check
 * every emitted event is a well-formed Trace Event of a known phase.
 */
TEST(TraceGolden, FullSimTraceIsValidTraceEventJson)
{
    auto soc = SocCatalog::snapdragon835Sim();
    telemetry::StatsRegistry reg;
    TraceRecorder rec;
    soc->attachTelemetry(&reg);
    soc->attachTracer(&rec);
    KernelJob j;
    j.workingSetBytes = 4e6;
    j.totalBytes = 4e6;
    j.opsPerByte = 1.0;
    soc->run({{"CPU", j}, {"DSP", j}}, 8);

    std::ostringstream out;
    rec.writeChromeTrace(out);
    JsonValue root = parseJson(out.str());
    const JsonValue &events = root.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_GT(events.size(), 0u);

    std::map<std::string, size_t> phases;
    std::set<std::string> counter_tracks;
    for (const JsonValue &e : events.items()) {
        const std::string ph(e.at("ph").asString());
        ++phases[ph];
        ASSERT_TRUE(e.has("name"));
        ASSERT_TRUE(e.has("pid"));
        if (ph == "X") {
            EXPECT_GE(e.at("ts").asNumber(), 0.0);
            EXPECT_GE(e.at("dur").asNumber(), 0.0);
            EXPECT_TRUE(e.has("tid"));
        } else if (ph == "C") {
            EXPECT_GE(e.at("ts").asNumber(), 0.0);
            ASSERT_TRUE(e.at("args").has("value"));
            counter_tracks.emplace(e.at("name").asString());
        } else {
            EXPECT_EQ(ph, "M");
        }
    }
    EXPECT_GT(phases["M"], 0u);
    EXPECT_GT(phases["X"], 0u);
    EXPECT_GT(phases["C"], 0u);
    // Queue-depth tracks from resources, plus the epoch-sampled
    // utilization / bandwidth / ops-rate tracks.
    EXPECT_EQ(counter_tracks.count("DRAM.queue"), 1u);
    EXPECT_EQ(counter_tracks.count("DRAM.util"), 1u);
    EXPECT_EQ(counter_tracks.count("DRAM.bw_gbps"), 1u);
    EXPECT_EQ(counter_tracks.count("CPU.gops"), 1u);
    EXPECT_EQ(counter_tracks.count("DSP.gops"), 1u);
}

} // namespace
} // namespace sim
} // namespace gables
