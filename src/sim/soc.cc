#include "sim/soc.h"

#include <algorithm>
#include <cmath>

#include "telemetry/span.h"
#include "telemetry/stats.h"
#include "util/logging.h"

namespace gables {
namespace sim {

double
SocRunStats::aggregateOpsRate() const
{
    if (!(duration > 0.0))
        return 0.0;
    double ops = 0.0;
    for (const EngineRunStats &e : engines)
        ops += e.ops;
    return ops / duration;
}

const EngineRunStats &
SocRunStats::engine(const std::string &name) const
{
    auto it = engineIndex.find(name);
    if (it != engineIndex.end() && it->second < engines.size())
        return engines[it->second];
    for (const EngineRunStats &e : engines) {
        if (e.name == name)
            return e;
    }
    fatal("no engine stats named '" + name + "'");
}

SimSoc::SimSoc(std::string name) : name_(std::move(name)) {}

void
SimSoc::setDram(double bandwidth, double latency)
{
    if (dram_)
        fatal("SimSoc '" + name_ + "': DRAM already configured");
    dram_ = std::make_unique<BandwidthResource>("DRAM", bandwidth,
                                                latency);
    dram_->setTracer(tracer_);
    if (registry_ != nullptr)
        dram_->attachTelemetry(registry_);
}

BandwidthResource *
SimSoc::addFabric(const std::string &fabric_name, double bandwidth,
                  double latency, BandwidthResource *parent)
{
    fabrics_.push_back(std::make_unique<BandwidthResource>(
        fabric_name, bandwidth, latency));
    BandwidthResource *fabric = fabrics_.back().get();
    fabric->setTracer(tracer_);
    if (registry_ != nullptr)
        fabric->attachTelemetry(registry_);
    if (parent != nullptr) {
        bool known = false;
        for (const auto &f : fabrics_)
            known = known || f.get() == parent;
        if (!known)
            fatal("fabric parent is not a fabric of this SoC");
    }
    fabricParent_[fabric] = parent;
    return fabric;
}

IpEngine *
SimSoc::addEngine(const IpEngineConfig &config,
                  const EngineAttachment &attach)
{
    if (!dram_)
        fatal("SimSoc '" + name_ + "': configure DRAM before engines");
    if (!(attach.linkBandwidth > 0.0))
        fatal("engine '" + config.name + "': link bandwidth must be > 0");
    for (const std::string &existing : engineNames_) {
        if (existing == config.name)
            fatal("duplicate engine name '" + config.name + "'");
    }

    links_.push_back(std::make_unique<BandwidthResource>(
        config.name + ".link", attach.linkBandwidth, attach.linkLatency));
    BandwidthResource *link = links_.back().get();
    link->setTracer(tracer_);

    // Build the shared path: fabric chain (child to parent) then DRAM.
    MemoryPath path;
    BandwidthResource *hop = attach.fabric;
    while (hop != nullptr) {
        path.addHop(hop);
        auto it = fabricParent_.find(hop);
        GABLES_ASSERT(it != fabricParent_.end(), "unknown fabric in path");
        hop = it->second;
    }
    path.addHop(dram_.get());

    LocalMemory *local = nullptr;
    if (attach.localCapacity > 0.0) {
        if (!(attach.localBandwidth > 0.0))
            fatal("engine '" + config.name +
                  "': local memory needs a bandwidth");
        locals_.push_back(std::make_unique<LocalMemory>(
            config.name + ".local", attach.localCapacity,
            attach.localBandwidth, attach.localLatency));
        local = locals_.back().get();
    }

    BandwidthResource *coordinator = nullptr;
    if (!attach.coordinatorEngine.empty())
        coordinator = engine(attach.coordinatorEngine)
                          ->computeResourcePtr();

    engines_.push_back(std::make_unique<IpEngine>(
        config, &eq_, link, std::move(path), local, coordinator));
    engines_.back()->computeResourcePtr()->setTracer(tracer_);
    if (local != nullptr)
        local->resource().setTracer(tracer_);
    if (registry_ != nullptr) {
        link->attachTelemetry(registry_);
        engines_.back()->attachTelemetry(registry_);
        if (local != nullptr)
            local->attachTelemetry(registry_);
    }
    engineNames_.push_back(config.name);
    engineIndex_[config.name] = engines_.size() - 1;
    coordinators_.push_back(coordinator);
    return engines_.back().get();
}

IpEngine *
SimSoc::engine(const std::string &engine_name)
{
    auto it = engineIndex_.find(engine_name);
    if (it == engineIndex_.end())
        fatal("SimSoc '" + name_ + "': no engine named '" +
              engine_name + "'");
    return engines_[it->second].get();
}

void
SimSoc::attachTracer(TraceRecorder *tracer)
{
    tracer_ = tracer;
    forEachResource(
        [tracer](BandwidthResource &r) { r.setTracer(tracer); });
}

void
SimSoc::attachTelemetry(telemetry::StatsRegistry *registry)
{
    registry_ = registry;
    if (dram_)
        dram_->attachTelemetry(registry);
    for (auto &f : fabrics_)
        f->attachTelemetry(registry);
    for (auto &l : links_)
        l->attachTelemetry(registry);
    for (auto &m : locals_)
        m->attachTelemetry(registry);
    for (auto &e : engines_)
        e->attachTelemetry(registry);
}

void
SimSoc::resetAll()
{
    eq_.reset();
    if (registry_ != nullptr)
        registry_->resetValues();
    if (dram_)
        dram_->reset();
    for (auto &f : fabrics_)
        f->reset();
    for (auto &l : links_)
        l->reset();
    for (auto &m : locals_)
        m->reset();
    for (auto &e : engines_)
        e->reset();
}

SocRunStats
SimSoc::run(const std::vector<JobSubmission> &jobs)
{
    return run(jobs, 0);
}

SocRunStats
SimSoc::run(const std::vector<JobSubmission> &jobs, int epochs)
{
    if (jobs.empty())
        fatal("SimSoc::run needs at least one job");
    if (epochs < 0)
        fatal("SimSoc::run: epochs must be >= 0");
    if (epochs > 0 && registry_ == nullptr)
        fatal("SimSoc::run: epoch sampling needs an attached "
              "telemetry registry (attachTelemetry)");
    GABLES_SPAN("sim.run");
    resetAll();
    GABLES_DLOG("SimSoc::run: " + name_ + ", " +
                std::to_string(jobs.size()) + " job(s), " +
                std::to_string(epochs) + " epoch(s)");

    SocRunStats stats;
    stats.engines.resize(jobs.size());
    size_t remaining = jobs.size();

    // The epoch series are binned from the service logs after the
    // run, so only a run that samples epochs keeps them. Pre-size
    // them for the expected booking volume so the run doesn't
    // reallocate them mid-run. Every resource sees at most one
    // booking per chunk (plus coordination interrupts, also one per
    // chunk).
    size_t expect = 0;
    if (epochs > 0) {
        double chunks = 0.0;
        for (const JobSubmission &s : jobs) {
            const IpEngineConfig &cfg =
                engine(s.engineName)->config();
            chunks += std::ceil(s.job.totalBytes / cfg.requestBytes);
        }
        expect = static_cast<size_t>(std::min(chunks, 65536.0));
    }
    forEachResource([&](BandwidthResource &r) {
        r.keepServiceLog(epochs > 0, expect);
    });

    // With a single job the engine is the sole requester on every
    // hop it can touch, so its chunks may be booked analytically.
    const bool batch = chunkBatching_ && jobs.size() == 1;
    for (size_t j = 0; j < jobs.size(); ++j) {
        IpEngine *eng = engine(jobs[j].engineName);
        eng->setBatchingAllowed(batch);
        eng->start(jobs[j].job,
                   [&stats, j, &remaining](const EngineRunStats &s) {
                       stats.engines[j] = s;
                       --remaining;
                   });
    }
    stats.duration = eq_.run();
    GABLES_ASSERT(remaining == 0, "a job never completed");
    for (size_t j = 0; j < jobs.size(); ++j)
        stats.engineIndex[stats.engines[j].name] = j;

    stats.resources.reserve((dram_ ? 1 : 0) + fabrics_.size() +
                            links_.size() + engines_.size());
    auto snapshot = [&](const BandwidthResource &r) {
        stats.resources.push_back(
            ResourceStats{r.name(), r.bytesServed(), r.busyTime(),
                          r.utilization(stats.duration)});
    };
    if (dram_) {
        snapshot(*dram_);
        stats.dramBytes = dram_->bytesServed();
    }
    for (const auto &f : fabrics_)
        snapshot(*f);
    for (const auto &l : links_)
        snapshot(*l);
    for (const auto &e : engines_)
        snapshot(e->computeResource());

    if (registry_ != nullptr) {
        uint64_t batched = 0;
        for (const auto &e : engines_)
            batched += e->batchedChunks();
        registry_
            ->counter("sim.events_executed",
                      "events dispatched by the queue this run")
            .add(static_cast<double>(eq_.eventsExecuted()));
        registry_
            ->counter("sim.events_pooled",
                      "scheduled events whose storage was recycled "
                      "rather than allocated")
            .add(static_cast<double>(eq_.eventsPooled()));
        registry_
            ->counter("sim.batched_chunks",
                      "chunks booked analytically instead of via "
                      "per-chunk events")
            .add(static_cast<double>(batched));
        size_t log_bytes = 0;
        forEachResource([&](BandwidthResource &r) {
            log_bytes += r.serviceLog().capacityBytes();
        });
        registry_
            ->gauge("telemetry.service_log_bytes",
                    "memory held by per-resource service-interval "
                    "logs (capacity; grows with run length — see "
                    "docs/OBSERVABILITY.md)")
            .set(static_cast<double>(log_bytes));
    }

    if (epochs > 0) {
        GABLES_SPAN("sim.epochs");
        sampleEpochSeries(stats, epochs);
    }
    return stats;
}

namespace {

/**
 * Spread each booked interval's busy time (and bytes, proportional
 * to time overlap) over fixed-width epoch bins.
 */
void
binIntervals(const ServiceLog &log, double dt, std::vector<double> &busy,
             std::vector<double> &bytes)
{
    int epochs = static_cast<int>(busy.size());
    log.forEach([&](const ServiceInterval &iv) {
        double end = iv.start + iv.duration;
        int k = static_cast<int>(std::floor(iv.start / dt));
        k = std::max(0, std::min(k, epochs - 1));
        if (iv.duration <= 0.0) {
            bytes[k] += iv.bytes;
            return;
        }
        for (; k < epochs; ++k) {
            double b0 = k * dt;
            double b1 = b0 + dt;
            double overlap =
                std::min(end, b1) - std::max(iv.start, b0);
            if (overlap > 0.0) {
                busy[k] += overlap;
                bytes[k] += iv.bytes * overlap / iv.duration;
            }
            if (end <= b1)
                break;
        }
    });
}

} // namespace

void
SimSoc::sampleEpochSeries(const SocRunStats &stats, int epochs)
{
    if (!(stats.duration > 0.0))
        return;
    double dt = stats.duration / epochs;

    // Utilization series for every resource; the DRAM controller
    // additionally yields a bandwidth series, and each engine's
    // compute resource an ops-rate series (its "bytes" are ops).
    auto sample = [&](const BandwidthResource &r) {
        std::vector<double> busy(epochs, 0.0), bytes(epochs, 0.0);
        binIntervals(r.serviceLog(), dt, busy, bytes);
        telemetry::TimeSeries &util = registry_->timeSeries(
            r.name() + ".utilization", "per-epoch utilization");
        for (int k = 0; k < epochs; ++k) {
            double t0 = k * dt;
            double u = std::min(1.0, busy[k] / dt);
            util.sample(t0 + 0.5 * dt, u);
            if (tracer_ != nullptr)
                tracer_->counter(r.name() + ".util", t0, u);
        }
        return bytes;
    };

    if (dram_) {
        std::vector<double> bytes = sample(*dram_);
        telemetry::TimeSeries &bw = registry_->timeSeries(
            "DRAM.bw_bytes", "per-epoch DRAM bandwidth (bytes/s)");
        for (int k = 0; k < epochs; ++k) {
            bw.sample((k + 0.5) * dt, bytes[k] / dt);
            if (tracer_ != nullptr)
                tracer_->counter("DRAM.bw_gbps", k * dt,
                                 bytes[k] / dt / 1e9);
        }
    }
    for (const auto &f : fabrics_)
        sample(*f);
    for (const auto &l : links_)
        sample(*l);
    for (const auto &m : locals_)
        sample(m->resource());
    for (size_t i = 0; i < engines_.size(); ++i) {
        const BandwidthResource &compute =
            engines_[i]->computeResource();
        std::vector<double> ops = sample(compute);
        telemetry::TimeSeries &rate = registry_->timeSeries(
            engineNames_[i] + ".ops_rate",
            "per-epoch achieved compute rate (ops/s)");
        for (int k = 0; k < epochs; ++k) {
            rate.sample((k + 0.5) * dt, ops[k] / dt);
            if (tracer_ != nullptr)
                tracer_->counter(engineNames_[i] + ".gops", k * dt,
                                 ops[k] / dt / 1e9);
        }
    }
}

} // namespace sim
} // namespace gables
