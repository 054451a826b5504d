/**
 * @file
 * The simulated SoC: owns the event queue, the DRAM controller, a
 * hierarchy of interconnect fabrics, and the IP engines (each with a
 * private link and optional local memory). Mirrors the generic SoC
 * of the paper's Figure 3 / Figure 5.
 */

#ifndef GABLES_SIM_SOC_H
#define GABLES_SIM_SOC_H

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.h"
#include "sim/ip_engine.h"
#include "sim/memory_system.h"
#include "sim/resource.h"
#include "sim/trace.h"

namespace gables {

namespace telemetry {
class StatsRegistry;
} // namespace telemetry

namespace sim {

/** Per-resource utilization snapshot after a run. */
struct ResourceStats {
    std::string name;
    double bytesServed = 0.0;
    double busyTime = 0.0;
    double utilization = 0.0;
};

/** Results of one SimSoc::run(). */
struct SocRunStats {
    /** Wall-clock (simulated) duration: last completion time. */
    double duration = 0.0;
    /** Per-engine run results, in job submission order. */
    std::vector<EngineRunStats> engines;
    /** Utilization of DRAM, fabrics, and links. */
    std::vector<ResourceStats> resources;
    /** Total bytes served by the DRAM controller. */
    double dramBytes = 0.0;
    /** Name → index into engines, filled by SimSoc::run so engine()
     * is a map lookup; hand-built stats may leave it empty (engine()
     * then falls back to a linear scan). */
    std::map<std::string, size_t> engineIndex;

    /** @return Aggregate ops/s across all engines over the run. */
    double aggregateOpsRate() const;

    /** @return Stats of the engine named @p name.
     * @throws FatalError if absent. */
    const EngineRunStats &engine(const std::string &name) const;
};

/**
 * Builder + container for a simulated SoC.
 *
 * Construction order: setDram(), then addFabric() (fabrics may chain
 * parent-to-child toward DRAM), then addEngine(). run() executes a
 * set of jobs concurrently and returns measured stats.
 */
class SimSoc
{
  public:
    /** @param name Display name. */
    explicit SimSoc(std::string name);

    /** @return Display name. */
    const std::string &name() const { return name_; }

    /**
     * Configure the DRAM controller (the chip's Bpeak).
     *
     * @param bandwidth Bytes/s.
     * @param latency   Access latency (s).
     */
    void setDram(double bandwidth, double latency);

    /**
     * Add an interconnect fabric.
     *
     * @param fabric_name Display name.
     * @param bandwidth   Bytes/s.
     * @param latency     Per-hop latency (s).
     * @param parent      Fabric this one feeds into, or nullptr to
     *                    connect directly to the DRAM controller.
     * @return Handle for attaching engines or child fabrics.
     */
    BandwidthResource *addFabric(const std::string &fabric_name,
                                 double bandwidth, double latency,
                                 BandwidthResource *parent = nullptr);

    /** Options for an engine's attachment. */
    struct EngineAttachment {
        /** Link bandwidth Bi (bytes/s). */
        double linkBandwidth = 0.0;
        /** Link latency (s). */
        double linkLatency = 0.0;
        /** Fabric the link feeds; nullptr = straight to DRAM. */
        BandwidthResource *fabric = nullptr;
        /** Local memory capacity (bytes); 0 = no local memory. */
        double localCapacity = 0.0;
        /** Local memory bandwidth (bytes/s; required if capacity>0). */
        double localBandwidth = 0.0;
        /** Local memory hit latency (s). */
        double localLatency = 0.0;
        /** Engine whose compute resource coordinates this engine's
         * misses (per IpEngineConfig::coordinationTime); by name,
         * empty = none. The coordinator must already be added. */
        std::string coordinatorEngine;
    };

    /**
     * Add an IP engine.
     *
     * @param config Engine configuration.
     * @param attach How it connects to the memory system.
     * @return Handle to the engine.
     */
    IpEngine *addEngine(const IpEngineConfig &config,
                        const EngineAttachment &attach);

    /** @return Engine by name. @throws FatalError if absent. */
    IpEngine *engine(const std::string &engine_name);

    /** One job submission for run(). */
    struct JobSubmission {
        std::string engineName;
        KernelJob job;
    };

    /**
     * Run all submitted jobs concurrently from time zero and return
     * measured statistics. Resets all resource state first, so runs
     * are independent.
     */
    SocRunStats run(const std::vector<JobSubmission> &jobs);

    /**
     * Like run(jobs), but with @p epochs > 0 the run is divided into
     * that many equal time slices and each resource's utilization is
     * sampled per slice into the attached telemetry registry as a
     * "<resource>.utilization" time series (plus "DRAM.bw_bytes" for
     * the DRAM byte rate and "<engine>.ops_rate" for each engine).
     * When a tracer is also attached, the same series are emitted as
     * Perfetto counter tracks ("<resource>.util", "DRAM.bw_gbps",
     * "<engine>.gops"). Requires attachTelemetry() when epochs > 0.
     */
    SocRunStats run(const std::vector<JobSubmission> &jobs,
                    int epochs);

    /** @return The event queue (for tests and custom scenarios). */
    EventQueue &eventQueue() { return eq_; }

    /**
     * Enable or disable analytic chunk batching (default enabled).
     * When a run has exactly one job, the engine is the sole
     * requester on every resource it touches, so run() lets it book
     * all chunks in one pass instead of one event per chunk —
     * results are bit-identical either way (see
     * IpEngine::setBatchingAllowed); only event counts differ.
     * Disable to force the fully event-driven path, e.g. to
     * cross-check the batched one.
     */
    void setChunkBatching(bool enabled) { chunkBatching_ = enabled; }

    /**
     * Attach a trace recorder to every resource of the SoC (DRAM,
     * fabrics, links, local memories, engine compute units); also
     * applied to engines added later. Pass nullptr to detach.
     */
    void attachTracer(TraceRecorder *tracer);

    /**
     * Attach a telemetry registry to every component of the SoC;
     * also applied to engines added later. Each run() resets the
     * registry's values, so its contents always describe the latest
     * run. Pass nullptr to detach; detached runs are bit-identical.
     */
    void attachTelemetry(telemetry::StatsRegistry *registry);

    /** @return The attached registry, or nullptr. */
    telemetry::StatsRegistry *telemetryRegistry()
    {
        return registry_;
    }

  private:
    void resetAll();
    void sampleEpochSeries(const SocRunStats &stats, int epochs);

    /** Call @p fn with every resource: the DRAM controller, fabrics,
     * links, local memories and engine compute units. */
    template <typename Fn>
    void forEachResource(Fn &&fn)
    {
        if (dram_)
            fn(*dram_);
        for (auto &f : fabrics_)
            fn(*f);
        for (auto &l : links_)
            fn(*l);
        for (auto &m : locals_)
            fn(m->resource());
        for (auto &e : engines_)
            fn(*e->computeResourcePtr());
    }

    std::string name_;
    EventQueue eq_;
    TraceRecorder *tracer_ = nullptr;
    telemetry::StatsRegistry *registry_ = nullptr;
    std::unique_ptr<BandwidthResource> dram_;
    std::vector<std::unique_ptr<BandwidthResource>> fabrics_;
    // Parent of each fabric (nullptr = DRAM).
    std::map<BandwidthResource *, BandwidthResource *> fabricParent_;
    std::vector<std::unique_ptr<BandwidthResource>> links_;
    std::vector<std::unique_ptr<LocalMemory>> locals_;
    std::vector<std::unique_ptr<IpEngine>> engines_;
    std::vector<std::string> engineNames_;
    // Name → index into engines_, maintained by addEngine.
    std::unordered_map<std::string, size_t> engineIndex_;
    bool chunkBatching_ = true;
    // Per-engine coordination-target compute resources (parallel to
    // engines_; nullptr where none). The coordinator's own compute
    // resource is shared, so interrupt handling steals its cycles.
    std::vector<BandwidthResource *> coordinators_;
};

} // namespace sim
} // namespace gables

#endif // GABLES_SIM_SOC_H
