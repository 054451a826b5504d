/**
 * @file
 * Golden equivalence tests for analytic chunk batching: a batched
 * single-job run must be BIT-identical to the fully event-driven run
 * — every stats field, resource snapshot, telemetry value, and the
 * RunReport JSON (modulo the event-accounting counters, which
 * definitionally differ). See DESIGN.md section 10 for why the
 * replay preserves bit patterns rather than merely values.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "sim/soc.h"
#include "soc/catalog.h"
#include "telemetry/report.h"
#include "telemetry/stats.h"
#include "util/json_reader.h"

namespace gables {
namespace sim {
namespace {

/** Counters that legitimately differ between batched and unbatched
 * runs: they count events and batched chunks, not simulation
 * results. */
bool
isEventAccountingStat(const std::string &name)
{
    return name == "sim.events_executed" ||
           name == "sim.events_pooled" ||
           name == "sim.batched_chunks";
}

void
expectBitEqual(double a, double b, const std::string &what)
{
    uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof ab);
    std::memcpy(&bb, &b, sizeof bb);
    EXPECT_EQ(ab, bb) << what << ": " << a << " vs " << b;
}

void
expectStatsBitEqual(const SocRunStats &a, const SocRunStats &b)
{
    expectBitEqual(a.duration, b.duration, "duration");
    expectBitEqual(a.dramBytes, b.dramBytes, "dramBytes");
    ASSERT_EQ(a.engines.size(), b.engines.size());
    for (size_t i = 0; i < a.engines.size(); ++i) {
        const EngineRunStats &x = a.engines[i];
        const EngineRunStats &y = b.engines[i];
        EXPECT_EQ(x.name, y.name);
        expectBitEqual(x.startTime, y.startTime, x.name + ".start");
        expectBitEqual(x.endTime, y.endTime, x.name + ".end");
        expectBitEqual(x.ops, y.ops, x.name + ".ops");
        expectBitEqual(x.bytes, y.bytes, x.name + ".bytes");
        expectBitEqual(x.missBytes, y.missBytes,
                       x.name + ".missBytes");
    }
    ASSERT_EQ(a.resources.size(), b.resources.size());
    for (size_t i = 0; i < a.resources.size(); ++i) {
        const ResourceStats &x = a.resources[i];
        const ResourceStats &y = b.resources[i];
        EXPECT_EQ(x.name, y.name);
        expectBitEqual(x.bytesServed, y.bytesServed,
                       x.name + ".bytesServed");
        expectBitEqual(x.busyTime, y.busyTime, x.name + ".busyTime");
        expectBitEqual(x.utilization, y.utilization,
                       x.name + ".utilization");
    }
}

/** Run the same job batched (default) and with batching forced off;
 * the two SocRunStats must match bit for bit. */
void
checkJobEquivalence(SimSoc *soc,
                    const std::vector<SimSoc::JobSubmission> &jobs)
{
    soc->setChunkBatching(true);
    SocRunStats batched = soc->run(jobs);
    soc->setChunkBatching(false);
    SocRunStats unbatched = soc->run(jobs);
    soc->setChunkBatching(true);
    expectStatsBitEqual(batched, unbatched);
}

KernelJob
job(double intensity, double total_mib, double working_mib)
{
    KernelJob j;
    j.totalBytes = total_mib * 1024 * 1024;
    j.workingSetBytes = working_mib * 1024 * 1024;
    j.opsPerByte = intensity;
    return j;
}

TEST(SimBatchGolden, SingleIpStreamingRun)
{
    auto soc = SocCatalog::simpleSim(10e9, 20e9, 40e9);
    checkJobEquivalence(soc.get(), {{"IP0", job(0.7, 16.0, 16.0)}});
    checkJobEquivalence(soc.get(), {{"IP0", job(100.0, 8.0, 8.0)}});
}

TEST(SimBatchGolden, PartialHitRatioRun)
{
    // CPU on the 835 sim has a 2 MiB local memory: an 8 MiB working
    // set gives a fractional hit ratio, so arrivals complete out of
    // issue order (hits overtake older misses) — the ordering case
    // the batched replay's arrival heap exists for.
    auto soc = SocCatalog::snapdragon835Sim();
    checkJobEquivalence(soc.get(), {{"CPU", job(2.0, 16.0, 8.0)}});
    // Fully-hitting and fully-missing extremes.
    checkJobEquivalence(soc.get(), {{"CPU", job(2.0, 16.0, 1.0)}});
    checkJobEquivalence(soc.get(), {{"CPU", job(2.0, 16.0, 64.0)}});
}

TEST(SimBatchGolden, CoordinationRun)
{
    // The 835 GPU routes per-miss interrupts through the CPU's
    // compute resource; with a single GPU job that resource is still
    // exclusively driven by this job, so batching stays legal.
    auto soc = SocCatalog::snapdragon835Sim();
    KernelJob j = job(0.5, 16.0, 16.0);
    j.coordinationTime = 2e-6;
    checkJobEquivalence(soc.get(), {{"GPU", j}});
}

TEST(SimBatchGolden, BatchedChunksCounterSoloRun)
{
    auto soc = SocCatalog::simpleSim(10e9, 20e9, 40e9);
    telemetry::StatsRegistry registry;
    soc->attachTelemetry(&registry);

    KernelJob j = job(0.7, 16.0, 16.0);
    soc->run({{"IP0", j}});
    const telemetry::Counter *batched =
        registry.findCounter("sim.batched_chunks");
    ASSERT_NE(batched, nullptr);
    // 16 MiB at 4 KiB per request = 4096 chunks, all batched.
    EXPECT_DOUBLE_EQ(batched->value(), 4096.0);
    const telemetry::Counter *executed =
        registry.findCounter("sim.events_executed");
    ASSERT_NE(executed, nullptr);
    // The whole run collapses to the single batch-done event.
    EXPECT_DOUBLE_EQ(executed->value(), 1.0);

    soc->setChunkBatching(false);
    soc->run({{"IP0", j}});
    EXPECT_DOUBLE_EQ(
        registry.findCounter("sim.batched_chunks")->value(), 0.0);
    // One event per chunk when fully event-driven, plus the done
    // event.
    EXPECT_DOUBLE_EQ(executed->value(), 4096.0 + 1.0);
}

TEST(SimBatchGolden, ContendedRunNeverBatches)
{
    auto soc = SocCatalog::snapdragon835Sim();
    telemetry::StatsRegistry registry;
    soc->attachTelemetry(&registry);

    // The three engines of `gables sim`, contending for DRAM.
    KernelJob j = job(1.0, 8.0, 8.0);
    const std::vector<SimSoc::JobSubmission> jobs = {
        {"CPU", j}, {"GPU", j}, {"DSP", j}};
    SocRunStats with_default = soc->run(jobs);
    EXPECT_DOUBLE_EQ(
        registry.findCounter("sim.batched_chunks")->value(), 0.0);
    // Each chunk costs one event (its arrival, which also accounts
    // for its completion), and each engine one done event.
    double chunks = 0.0;
    for (const SimSoc::JobSubmission &s : jobs)
        chunks += std::ceil(s.job.totalBytes /
                            soc->engine(s.engineName)->config().requestBytes);
    EXPECT_DOUBLE_EQ(
        registry.findCounter("sim.events_executed")->value(),
        chunks + 3.0);

    // And forcing batching off changes nothing for multi-IP runs.
    soc->setChunkBatching(false);
    SocRunStats forced_off = soc->run(jobs);
    expectStatsBitEqual(with_default, forced_off);
}

/** Compare two parsed JSON values recursively, skipping the
 * event-accounting stats keys. */
void
expectJsonEqual(const JsonValue &a, const JsonValue &b,
                const std::string &path)
{
    ASSERT_EQ(static_cast<int>(a.type()), static_cast<int>(b.type()))
        << path;
    switch (a.type()) {
      case JsonValue::Type::Null:
        break;
      case JsonValue::Type::Bool:
        EXPECT_EQ(a.asBool(), b.asBool()) << path;
        break;
      case JsonValue::Type::Number:
        expectBitEqual(a.asNumber(), b.asNumber(), path);
        break;
      case JsonValue::Type::String:
        EXPECT_EQ(a.asString(), b.asString()) << path;
        break;
      case JsonValue::Type::Array: {
        ASSERT_EQ(a.size(), b.size()) << path;
        size_t i = 0;
        auto bi = b.items().begin();
        for (const JsonValue &item : a.items()) {
            expectJsonEqual(item, *bi,
                            path + "[" + std::to_string(i) + "]");
            ++i;
            ++bi;
        }
        break;
      }
      case JsonValue::Type::Object: {
        ASSERT_EQ(a.size(), b.size()) << path;
        auto bm = b.members().begin();
        for (const auto &[key, value] : a.members()) {
            const auto [b_key, b_value] = *bm;
            ++bm;
            ASSERT_EQ(key, b_key) << path;
            if (isEventAccountingStat(std::string(key)))
                continue;
            expectJsonEqual(value, b_value,
                            path + "." + std::string(key));
        }
        break;
      }
    }
}

TEST(SimBatchGolden, RunReportIdenticalModuloEventCounters)
{
    auto make_report = [](bool batching) {
        auto soc = SocCatalog::snapdragon835Sim();
        telemetry::StatsRegistry registry;
        soc->attachTelemetry(&registry);
        soc->setChunkBatching(batching);
        SocRunStats stats = soc->run({{"CPU", job(2.0, 16.0, 8.0)}},
                                     8);

        telemetry::RunReport report("sim_batch_golden_test",
                                    soc->name());
        report.setDuration(stats.duration);
        for (const EngineRunStats &e : stats.engines)
            report.addEngine({e.name, e.ops, e.bytes, e.missBytes,
                              e.achievedOpsRate()});
        for (const ResourceStats &r : stats.resources)
            report.addResource({r.name, r.bytesServed, r.busyTime,
                                r.utilization});
        report.setRegistry(&registry);
        std::ostringstream out;
        report.write(out);
        return out.str();
    };

    std::string batched = make_report(true);
    std::string unbatched = make_report(false);
    // The reports differ only in the event-accounting counters.
    EXPECT_NE(batched, unbatched);
    expectJsonEqual(parseJson(batched), parseJson(unbatched),
                    "report");
}

} // namespace
} // namespace sim
} // namespace gables
