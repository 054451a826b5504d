/**
 * @file
 * A simulated IP block running the roofline micro-benchmark kernel
 * (paper Algorithm 1): stream an array through the memory system and
 * perform a configurable number of operations per byte. The engine
 * overlaps data movement (up to a configurable number of outstanding
 * requests) with computation, so its measured throughput traces out
 * a roofline as the flops-per-byte knob varies.
 *
 * The engine also models the paper's third usecase bottleneck
 * (Section II-B): per-request coordination routed through another
 * IP — typically the CPU — which charges a fixed interrupt-handling
 * service time on the coordinator for every off-IP request.
 *
 * Hot path: a chunk's life is two steps, each written once and
 * shared by both ways of running a job. issueChunks() books chunks
 * while a request slot is free and hands each to a sink;
 * chunkArrived() accounts for a chunk whose data arrived: it books
 * the chunk's compute and counts it, and the last chunk schedules the
 * run's one done event at its completion time. In an event-driven run
 * the sink schedules a typed DataArrived event (no closures), whose
 * handler runs the two steps. When start() is told the engine is
 * alone on every hop of its path, the sink pushes onto a min-heap
 * instead and runBatched() drains it in the order the event queue
 * would fire those arrivals, through the same two steps, so results
 * stay bit-identical and the done event is the run's only event
 * (DESIGN.md section 10).
 */

#ifndef GABLES_SIM_IP_ENGINE_H
#define GABLES_SIM_IP_ENGINE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/memory_system.h"
#include "sim/resource.h"
#include "telemetry/stats.h"

namespace gables {

namespace telemetry {
class StatsRegistry;
} // namespace telemetry

namespace sim {

/** Static configuration of a simulated IP engine. */
struct IpEngineConfig {
    /** Display name. */
    std::string name;
    /** Peak computation rate (ops/s). */
    double opsPerSec = 1e9;
    /** Bytes per memory request (transfer granularity). */
    double requestBytes = 4096.0;
    /** Maximum outstanding memory requests (memory-level
     * parallelism). */
    int maxOutstanding = 8;
};

/** The micro-benchmark job an engine executes (Algorithm 1). */
struct KernelJob {
    /** Array footprint in bytes (working set; drives local-memory
     * hit ratio). */
    double workingSetBytes = 64.0 * 1024 * 1024;
    /** Total bytes to stream (trials * footprint). */
    double totalBytes = 64.0 * 1024 * 1024;
    /** Operations performed per byte streamed (the intensity knob —
     * FLOPS_PER_BYTE in Algorithm 1). */
    double opsPerByte = 1.0;
    /**
     * Coordination service time charged on the engine's coordinator
     * per miss request (seconds); 0 disables. Models offloaded-work
     * buffer handoff interrupts routed through the CPU (paper
     * Section II-B, third bottleneck). Isolated micro-benchmark runs
     * use 0; offloaded mixing runs use a positive cost.
     */
    double coordinationTime = 0.0;
};

/** Measured results of one engine run. */
struct EngineRunStats {
    /** Engine display name. */
    std::string name;
    /** Simulated start and end times of the run (s). */
    double startTime = 0.0;
    double endTime = 0.0;
    /** Total operations executed. */
    double ops = 0.0;
    /** Total bytes requested (hits + misses). */
    double bytes = 0.0;
    /** Bytes that missed the local memory and went down the path. */
    double missBytes = 0.0;

    /** @return Elapsed simulated time (s). */
    double elapsed() const { return endTime - startTime; }
    /** @return Achieved computation rate (ops/s). */
    double achievedOpsRate() const { return ops / elapsed(); }
    /** @return Achieved total data rate (bytes/s). */
    double achievedByteRate() const { return bytes / elapsed(); }
    /** @return Achieved off-IP (miss) data rate (bytes/s). */
    double achievedMissRate() const { return missBytes / elapsed(); }
};

/**
 * A simulated IP engine. Owned by SimSoc; not copyable (scheduled
 * events reference `this`).
 */
class IpEngine
{
  public:
    /**
     * @param config      Static configuration.
     * @param eq          The SoC's event queue.
     * @param link        The engine's private link resource (its Bi).
     * @param path        Hops beyond the link toward DRAM (fabrics,
     *                    DRAM controller) in traversal order.
     * @param local       Optional local memory (nullptr = none).
     * @param coordinator Optional resource charged coordinationTime
     *                    per miss (nullptr = none).
     */
    IpEngine(IpEngineConfig config, EventQueue *eq,
             BandwidthResource *link, MemoryPath path,
             LocalMemory *local, BandwidthResource *coordinator);

    IpEngine(const IpEngine &) = delete;
    IpEngine &operator=(const IpEngine &) = delete;

    /** @return The configuration. */
    const IpEngineConfig &config() const { return config_; }

    /** @return The engine's compute resource (for stats). */
    const BandwidthResource &computeResource() const { return compute_; }

    /**
     * @return Mutable compute resource, used to wire another engine's
     * coordination traffic onto this engine's cycles.
     */
    BandwidthResource *computeResourcePtr() { return &compute_; }

    /** @return The engine's link resource. */
    BandwidthResource *link() { return link_; }

    /**
     * Begin executing @p job; @p on_done fires (once) with the run's
     * stats when the last chunk completes. The engine must be idle.
     *
     * @p alone is the caller's promise that the engine is the sole
     * requester: between this call and the run's completion, no other
     * requester touches any hop of its path (link, fabrics, DRAM),
     * its local memory or its coordinator. SimSoc::run passes it
     * exactly when the engine runs the only job of the run. The job
     * is then booked in one pass without per-chunk events; it runs
     * the same per-chunk steps in the same order, so all stats,
     * telemetry and traces are bit-identical, and only the event
     * count changes.
     */
    void start(const KernelJob &job,
               std::function<void(const EngineRunStats &)> on_done,
               bool alone);

    /** @return Chunks booked analytically in the latest run (0 when
     * the run was event-driven). */
    uint64_t batchedChunks() const { return batchedChunks_; }

    /**
     * Attach a telemetry registry: registers per-engine issue
     * counters ("<name>.chunks_issued", "<name>.chunks_computed"),
     * hit/miss request counters, and a coordination-interrupt
     * counter, plus the compute resource's standard stats. Pass
     * nullptr to detach.
     */
    void attachTelemetry(telemetry::StatsRegistry *registry);

    /** Reset per-run state (the SoC resets resources separately). */
    void reset();

  private:
    friend class EventQueue; // dispatches the typed events below

    /** One issued chunk: its data arrives at `when`; `idx` is its
     * issue order. */
    struct Arrival {
        double when;
        uint64_t idx;
        double bytes;
        bool miss;
    };

    // Forced inline: GCC kept the batched instance out of line, and a
    // call per arrival slowed single-job runs (gables ert) measurably.
    template <typename Sink>
    [[gnu::always_inline]] inline void issueChunks(double now,
                                                   Sink &&sink);
    Arrival issueChunk(double now);
    void issueRequests();
    void runBatched();
    // The per-chunk handlers are defined inline below the class: the
    // EventQueue dispatch switch folds them into its drain loop.
    inline void onDataArrived(double chunk_bytes, bool was_miss);
    inline void chunkArrived(double now, double chunk_bytes,
                             bool was_miss);
    void onRunDone();
    double chunkBytes(uint64_t index) const;

    IpEngineConfig config_;
    EventQueue *eq_;
    BandwidthResource *link_;
    MemoryPath path_;
    LocalMemory *local_;
    BandwidthResource *coordinator_;
    BandwidthResource compute_;

    // Per-run state.
    bool running_ = false;
    KernelJob job_;
    std::function<void(const EngineRunStats &)> onDone_;
    uint64_t chunksTotal_ = 0;
    uint64_t chunksIssued_ = 0;
    uint64_t chunksComputed_ = 0;
    uint64_t batchedChunks_ = 0;
    int inFlight_ = 0;
    EngineRunStats stats_;

    // A batched run's in-flight chunks (reused across runs).
    std::vector<Arrival> batchHeap_;

    // Telemetry bindings (all null when detached).
    telemetry::Counter *issuedCount_ = nullptr;
    telemetry::Counter *computedCount_ = nullptr;
    telemetry::Counter *hitRequests_ = nullptr;
    telemetry::Counter *missRequests_ = nullptr;
    telemetry::Counter *coordInterrupts_ = nullptr;
};

inline void
IpEngine::onDataArrived(double chunk_bytes, bool was_miss)
{
    chunkArrived(eq_->now(), chunk_bytes, was_miss);
    issueRequests();
}

/**
 * Account for a chunk of @p chunk_bytes whose data arrived at @p now:
 * book its compute and count it as computed. The compute resource is
 * FIFO with a constant latency, so this engine's completions come in
 * booking order (coordination bookings from other engines keep it):
 * ops add up in the order the completions would fire, and the last
 * chunk booked is the last to finish, so the run ends at its
 * completion.
 */
inline void
IpEngine::chunkArrived(double now, double chunk_bytes, bool was_miss)
{
    GABLES_ASSERT(inFlight_ > 0, "data arrival with nothing in flight");
    --inFlight_;
    stats_.bytes += chunk_bytes;
    if (was_miss)
        stats_.missBytes += chunk_bytes;

    double ops = chunk_bytes * job_.opsPerByte;
    double done_at = compute_.acquire(now, ops);
    stats_.ops += ops;
    ++chunksComputed_;
    if (computedCount_ != nullptr)
        computedCount_->add(1.0);
    if (chunksComputed_ == chunksTotal_)
        eq_->scheduleRunDone(done_at, this);
}

} // namespace sim
} // namespace gables

#endif // GABLES_SIM_IP_ENGINE_H
