/**
 * @file
 * Tests of the telemetry instrumentation threaded through the
 * simulator: per-resource wait/service accounting under contention,
 * queue-depth sampling, epoch time series, engine counters, the
 * bit-identical-when-detached invariant, and RunReport output.
 */

#include <algorithm>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "sim/resource.h"
#include "sim/soc.h"
#include "soc/catalog.h"
#include "telemetry/report.h"
#include "telemetry/stats.h"
#include "util/json_reader.h"
#include "util/logging.h"

namespace gables {
namespace sim {
namespace {

/** Two back-to-back arrivals: the second must queue behind the first. */
TEST(ResourceTelemetry, WaitTimeUnderContention)
{
    telemetry::StatsRegistry reg;
    BandwidthResource r("bus", 1e9); // 1 GB/s, no latency
    r.attachTelemetry(&reg);

    // First request: 1000 bytes at t=0 -> served [0, 1e-6], no wait.
    EXPECT_DOUBLE_EQ(r.acquire(0.0, 1000.0), 1e-6);
    // Second arrives at 0.4us while the first is in service: waits
    // 0.6us, served [1e-6, 2e-6].
    EXPECT_DOUBLE_EQ(r.acquire(0.4e-6, 1000.0), 2e-6);

    const telemetry::Distribution *wait = reg.findDistribution("bus.wait_time");
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(wait->count(), 2u);
    EXPECT_DOUBLE_EQ(wait->min(), 0.0);
    EXPECT_NEAR(wait->max(), 0.6e-6, 1e-18);

    const telemetry::Distribution *svc = reg.findDistribution("bus.service_time");
    ASSERT_NE(svc, nullptr);
    EXPECT_NEAR(svc->mean(), 1e-6, 1e-18);

    // Queue depth at arrival counts the request just booked: 1 for
    // the first (nothing ahead of it), 2 for the second.
    const telemetry::Distribution *depth = reg.findDistribution("bus.queue_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_DOUBLE_EQ(depth->min(), 1.0);
    EXPECT_DOUBLE_EQ(depth->max(), 2.0);

    EXPECT_DOUBLE_EQ(reg.findCounter("bus.requests")->value(), 2.0);
    EXPECT_DOUBLE_EQ(reg.findCounter("bus.bytes")->value(), 2000.0);
}

TEST(ResourceTelemetry, QueueDrainsBetweenBursts)
{
    telemetry::StatsRegistry reg;
    BandwidthResource r("bus", 1e9);
    r.attachTelemetry(&reg);
    r.acquire(0.0, 1000.0);
    r.acquire(0.0, 1000.0);
    r.acquire(0.0, 1000.0);
    // All three are complete by 3us; a request at 10us sees an empty
    // queue again (depth 1: just itself).
    r.acquire(10e-6, 1000.0);
    const telemetry::Distribution *depth = reg.findDistribution("bus.queue_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->count(), 4u);
    EXPECT_DOUBLE_EQ(depth->max(), 3.0);
    EXPECT_DOUBLE_EQ(depth->min(), 1.0);
    // Histogram saw the same samples.
    const telemetry::Histogram *hist = reg.findHistogram("bus.queue_depth_hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count(), 4u);
}

TEST(ResourceTelemetry, ServiceLogOnlyWhenKept)
{
    BandwidthResource r("bus", 1e9);
    r.acquire(0.0, 1000.0);
    EXPECT_TRUE(r.serviceLog().empty());

    // A registry alone samples the booking but logs nothing.
    telemetry::StatsRegistry reg;
    r.attachTelemetry(&reg);
    r.acquire(2e-6, 1000.0);
    EXPECT_TRUE(r.serviceLog().empty());
    EXPECT_EQ(reg.findDistribution("bus.wait_time")->count(), 1u);

    r.keepServiceLog(true);
    r.acquire(5e-6, 2000.0);
    ASSERT_EQ(r.serviceLog().size(), 1u);
    EXPECT_DOUBLE_EQ(r.serviceLog()[0].start, 5e-6);
    EXPECT_NEAR(r.serviceLog()[0].duration, 2e-6, 1e-18);
    EXPECT_DOUBLE_EQ(r.serviceLog()[0].bytes, 2000.0);

    // The log needs no registry, and stops when no longer kept.
    r.attachTelemetry(nullptr);
    r.reset();
    r.acquire(0.0, 1000.0);
    ASSERT_EQ(r.serviceLog().size(), 1u);
    r.keepServiceLog(false);
    r.reset();
    r.acquire(0.0, 1000.0);
    EXPECT_TRUE(r.serviceLog().empty());
}

/**
 * A scripted mix of transfers and fixed-service bookings: sizes that
 * repeat, change and come back, zero-byte transfers, and service
 * times equal to a transfer's duration but with no bytes. The log
 * must read back every booking as its exact (start, duration, bytes)
 * triple, in booking order.
 */
TEST(ResourceTelemetry, ServiceLogReadsBackEveryBooking)
{
    telemetry::StatsRegistry reg;
    BandwidthResource r("bus", 3e9);
    r.attachTelemetry(&reg);
    r.keepServiceLog(true);

    struct Booking {
        double arrival;
        bool service; // acquireService() instead of acquire()
        double amount; // bytes, or service seconds
    };
    const std::vector<Booking> script = {
        {0.0, false, 4096}, {0.0, false, 4096}, {1e-6, false, 4096},
        {1e-6, false, 1000}, {2e-6, false, 1000}, {2e-6, true, 5e-7},
        {3e-6, true, 5e-7}, {3e-6, false, 4096}, {9e-6, false, 0.0},
        {9e-6, false, 0.0}, {9e-6, true, 1000 / 3e9},
        {1e-5, false, 1000}, {1e-5, true, 0.0}, {2e-5, false, 4096},
        {2e-5, false, 4096}, {2e-5, false, 4096}};
    struct Triple {
        double start, duration, bytes;
    };
    std::vector<Triple> want;
    double busy = 0.0;
    for (const Booking &b : script) {
        double start = std::max(b.arrival, busy);
        double duration = b.service ? b.amount : b.amount / 3e9;
        double bytes = b.service ? 0.0 : b.amount;
        want.push_back({start, duration, bytes});
        busy = start + duration;
        if (b.service)
            r.acquireService(b.arrival, b.amount);
        else
            r.acquire(b.arrival, b.amount);
    }

    const ServiceLog &log = r.serviceLog();
    ASSERT_EQ(log.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(log[i].start, want[i].start);
        EXPECT_EQ(log[i].duration, want[i].duration);
        EXPECT_EQ(log[i].bytes, want[i].bytes);
    }
    size_t next = 0;
    log.forEach([&](const ServiceInterval &iv) {
        ASSERT_LT(next, want.size());
        SCOPED_TRACE(next);
        EXPECT_EQ(iv.start, want[next].start);
        EXPECT_EQ(iv.duration, want[next].duration);
        EXPECT_EQ(iv.bytes, want[next].bytes);
        ++next;
    });
    EXPECT_EQ(next, want.size());

    r.reset();
    EXPECT_TRUE(r.serviceLog().empty());
    size_t visited = 0;
    r.serviceLog().forEach([&](const ServiceInterval &) { ++visited; });
    EXPECT_EQ(visited, 0u);
}

/**
 * A stream of equal transfers is one run: the log holds its reserved
 * start times plus a single 24-byte run record.
 */
TEST(ResourceTelemetry, ServiceLogHoldsEightBytesPerSteadyBooking)
{
    telemetry::StatsRegistry reg;
    BandwidthResource r("bus", 3e9);
    r.attachTelemetry(&reg);
    r.keepServiceLog(true, 1000);
    for (int i = 0; i < 1000; ++i)
        r.acquire(i * 1e-6, 4096.0);
    EXPECT_EQ(r.serviceLog().size(), 1000u);
    EXPECT_EQ(r.serviceLog().capacityBytes(), 1000u * 8 + 24);
}

/** Attaching telemetry must not perturb booking arithmetic. */
TEST(ResourceTelemetry, BookingIdenticalWithAndWithoutTelemetry)
{
    telemetry::StatsRegistry reg;
    BandwidthResource bare("bus", 3e9, 2e-9);
    BandwidthResource inst("bus", 3e9, 2e-9);
    inst.attachTelemetry(&reg);
    double t_bare = 0.0, t_inst = 0.0;
    for (int i = 0; i < 50; ++i) {
        double arrival = i * 0.7e-9;
        double bytes = 100.0 + 37.0 * (i % 5);
        t_bare = bare.acquire(arrival, bytes);
        t_inst = inst.acquire(arrival, bytes);
        ASSERT_EQ(t_bare, t_inst);
    }
    EXPECT_EQ(bare.busyUntil(), inst.busyUntil());
    EXPECT_EQ(bare.busyTime(), inst.busyTime());
}

/** Full-SoC runs are bit-identical with telemetry attached or not. */
TEST(SocTelemetry, DetachedRunBitIdentical)
{
    KernelJob j;
    j.workingSetBytes = 32e6;
    j.totalBytes = 32e6;
    j.opsPerByte = 2.0;

    auto plain = SocCatalog::snapdragon835Sim();
    SocRunStats a = plain->run({{"CPU", j}, {"GPU", j}});

    auto instrumented = SocCatalog::snapdragon835Sim();
    telemetry::StatsRegistry reg;
    instrumented->attachTelemetry(&reg);
    SocRunStats b = instrumented->run({{"CPU", j}, {"GPU", j}}, 8);

    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    ASSERT_EQ(a.engines.size(), b.engines.size());
    for (size_t i = 0; i < a.engines.size(); ++i) {
        EXPECT_EQ(a.engines[i].ops, b.engines[i].ops);
        EXPECT_EQ(a.engines[i].endTime, b.engines[i].endTime);
        EXPECT_EQ(a.engines[i].missBytes, b.engines[i].missBytes);
    }
}

TEST(SocTelemetry, EpochSeriesShapeAndBounds)
{
    auto soc = SocCatalog::snapdragon835Sim();
    telemetry::StatsRegistry reg;
    soc->attachTelemetry(&reg);
    KernelJob j;
    j.workingSetBytes = 32e6;
    j.totalBytes = 32e6;
    j.opsPerByte = 1.0;
    const int epochs = 16;
    SocRunStats stats = soc->run({{"CPU", j}}, epochs);

    const telemetry::TimeSeries *util = reg.findTimeSeries("DRAM.utilization");
    ASSERT_NE(util, nullptr);
    ASSERT_EQ(util->size(), static_cast<size_t>(epochs));
    double busy_sum = 0.0;
    for (size_t i = 0; i < util->size(); ++i) {
        EXPECT_GE(util->values()[i], 0.0);
        EXPECT_LE(util->values()[i], 1.0);
        EXPECT_GT(util->times()[i], 0.0);
        EXPECT_LT(util->times()[i], stats.duration);
        busy_sum += util->values()[i] * (stats.duration / epochs);
    }
    // Epoch-binned busy time reconstructs the total busy time.
    double dram_busy = 0.0;
    for (const ResourceStats &r : stats.resources)
        if (r.name == "DRAM")
            dram_busy = r.busyTime;
    EXPECT_NEAR(busy_sum, dram_busy, 1e-9 + 1e-6 * dram_busy);

    const telemetry::TimeSeries *bw = reg.findTimeSeries("DRAM.bw_bytes");
    ASSERT_NE(bw, nullptr);
    EXPECT_EQ(bw->size(), static_cast<size_t>(epochs));
    const telemetry::TimeSeries *ops = reg.findTimeSeries("CPU.ops_rate");
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops->size(), static_cast<size_t>(epochs));
}

/**
 * The service logs feed only the epoch series: a run that samples no
 * epochs keeps none, even with a registry attached, and a run that
 * samples them still yields every series.
 */
TEST(SocTelemetry, ServiceLogOnlyInRunsThatSampleEpochs)
{
    auto soc = SocCatalog::snapdragon835Sim();
    telemetry::StatsRegistry reg;
    soc->attachTelemetry(&reg);
    KernelJob j;
    j.workingSetBytes = 8e6;
    j.totalBytes = 8e6;
    const std::vector<SimSoc::JobSubmission> jobs = {{"CPU", j},
                                                     {"GPU", j}};
    auto logged = [&] {
        size_t bookings = 0;
        for (const char *name : {"CPU", "GPU"}) {
            IpEngine *e = soc->engine(name);
            bookings += e->computeResource().serviceLog().size() +
                        e->link()->serviceLog().size();
        }
        return bookings;
    };

    SocRunStats bare = soc->run(jobs);
    EXPECT_EQ(logged(), 0u);
    EXPECT_EQ(reg.findGauge("telemetry.service_log_bytes")->value(), 0.0);
    EXPECT_EQ(reg.findTimeSeries("DRAM.utilization"), nullptr);
    EXPECT_GT(reg.findCounter("CPU.compute.requests")->value(), 0.0);

    SocRunStats sampled = soc->run(jobs, 8);
    EXPECT_GT(logged(), 0u);
    EXPECT_GT(reg.findGauge("telemetry.service_log_bytes")->value(), 0.0);
    for (const char *series :
         {"DRAM.utilization", "DRAM.bw_bytes", "CPU.ops_rate",
          "GPU.ops_rate", "CPU.compute.utilization"}) {
        const telemetry::TimeSeries *ts = reg.findTimeSeries(series);
        ASSERT_NE(ts, nullptr) << series;
        EXPECT_EQ(ts->size(), 8u) << series;
    }
    EXPECT_EQ(bare.duration, sampled.duration);

    soc->run(jobs);
    EXPECT_EQ(logged(), 0u);
}

TEST(SocTelemetry, EpochsWithoutRegistryIsFatal)
{
    auto soc = SocCatalog::snapdragon835Sim();
    KernelJob j;
    EXPECT_THROW(soc->run({{"CPU", j}}, 4), FatalError);
    EXPECT_THROW(soc->run({{"CPU", j}}, -1), FatalError);
}

TEST(SocTelemetry, EngineCountersConsistentWithStats)
{
    auto soc = SocCatalog::snapdragon835Sim();
    telemetry::StatsRegistry reg;
    soc->attachTelemetry(&reg);
    KernelJob j;
    j.workingSetBytes = 8e6;
    j.totalBytes = 16e6;
    j.opsPerByte = 4.0;
    SocRunStats stats = soc->run({{"GPU", j}});

    const EngineRunStats &g = stats.engine("GPU");
    double issued = reg.findCounter("GPU.chunks_issued")->value();
    double computed = reg.findCounter("GPU.chunks_computed")->value();
    double hits = reg.findCounter("GPU.hit_requests")->value();
    double misses = reg.findCounter("GPU.miss_requests")->value();
    EXPECT_GT(issued, 0.0);
    EXPECT_DOUBLE_EQ(issued, computed);
    EXPECT_DOUBLE_EQ(hits + misses, issued);
    // Requests are fixed-size chunks, so miss bytes imply misses > 0
    // (working set exceeds the GPU's local memory capacity or not —
    // either way the counters must agree with the byte totals).
    if (g.missBytes > 0.0)
        EXPECT_GT(misses, 0.0);
    else
        EXPECT_DOUBLE_EQ(misses, 0.0);
    // Local-memory hit/miss counters mirror the engine's.
    const telemetry::Counter *lhits = reg.findCounter("GPU.local.hits");
    if (lhits != nullptr) {
        EXPECT_DOUBLE_EQ(lhits->value(), hits);
        EXPECT_DOUBLE_EQ(reg.findCounter("GPU.local.misses")->value(),
                         misses);
    }
}

TEST(SocTelemetry, RegistryResetsBetweenRuns)
{
    auto soc = SocCatalog::snapdragon835Sim();
    telemetry::StatsRegistry reg;
    soc->attachTelemetry(&reg);
    KernelJob j;
    j.workingSetBytes = 8e6;
    j.totalBytes = 8e6;
    soc->run({{"CPU", j}});
    double first = reg.findCounter("CPU.chunks_issued")->value();
    soc->run({{"CPU", j}});
    // Values describe the latest run only, not an accumulation.
    EXPECT_DOUBLE_EQ(reg.findCounter("CPU.chunks_issued")->value(),
                     first);
}

TEST(RunReport, WritesRequiredKeysAndStats)
{
    telemetry::StatsRegistry reg;
    reg.counter("c", "count").add(4.0);

    telemetry::RunReport report("gables test", "unit-soc");
    report.addConfig("soc", "unit-soc");
    report.addConfig("epochs", static_cast<long>(8));
    report.setDuration(0.5);
    report.addEngine({"CPU", 100.0, 50.0, 10.0, 200.0});
    report.addResource({"DRAM", 50.0, 0.25, 0.5});
    report.addDelta("CPU", 250.0, 200.0);
    report.setRegistry(&reg);

    std::ostringstream out;
    report.write(out);
    JsonValue root = parseJson(out.str());

    EXPECT_EQ(root.at("schema").at("name").asString(),
              "gables-run-report");
    EXPECT_DOUBLE_EQ(root.at("schema").at("version").asNumber(), 1.0);
    EXPECT_EQ(root.at("generator").asString(), "gables test");
    EXPECT_EQ(root.at("subject").asString(), "unit-soc");
    EXPECT_EQ(root.at("config").at("soc").asString(), "unit-soc");
    EXPECT_DOUBLE_EQ(root.at("config").at("epochs").asNumber(), 8.0);
    EXPECT_DOUBLE_EQ(root.at("duration_s").asNumber(), 0.5);
    EXPECT_EQ(root.at("engines").at(0).at("name").asString(), "CPU");
    EXPECT_DOUBLE_EQ(
        root.at("resources").at(0).at("utilization").asNumber(), 0.5);
    EXPECT_NEAR(root.at("model_vs_sim").at(0).at("delta_pct").asNumber(),
                -20.0, 1e-9);
    EXPECT_DOUBLE_EQ(root.at("stats").at("c").at("value").asNumber(),
                     4.0);
}

} // namespace
} // namespace sim
} // namespace gables
