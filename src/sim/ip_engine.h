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
 * Hot path: a chunk costs one typed event, its data arrival,
 * dispatched by the EventQueue switch (no closures). The arrival
 * books the chunk's compute and accounts for its completion there,
 * and the last chunk schedules the run's one done event at its
 * completion time. When the SoC marks the engine as the sole active
 * requester on every hop of its path, start() books the whole job in
 * one analytic batch — the same per-chunk acquire arithmetic
 * replayed in a tight loop, so results stay bit-identical — and the
 * done event is the run's only event (DESIGN.md section 10).
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
     */
    void start(const KernelJob &job,
               std::function<void(const EngineRunStats &)> on_done);

    /** @return True if a job is in flight. */
    bool busy() const { return running_; }

    /**
     * Permit analytic chunk batching for subsequent start() calls.
     * Legality is the caller's contract: between this engine's
     * start() and its completion, no other requester may touch any
     * hop of its path (link, fabrics, DRAM), its local memory, or
     * its coordinator — SimSoc::run grants this exactly when the
     * engine runs the only job of the run. Batched runs replay the
     * identical per-chunk booking arithmetic without per-chunk
     * events, so all stats, telemetry, and traces are bit-identical;
     * only the event count changes. Default off.
     */
    void setBatchingAllowed(bool allowed)
    {
        batchingAllowed_ = allowed;
    }

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

    void issueRequests();
    // The per-chunk handler is defined inline below the class: the
    // EventQueue dispatch switch folds it into its drain loop.
    inline void onDataArrived(double chunk_bytes, bool was_miss);
    inline void chunkComputed(double ops, double done_at);
    void onRunDone();
    void runBatched();
    double issueOneChunk(double now, double &bytes, bool &was_miss);
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
    bool batchingAllowed_ = false;
    KernelJob job_;
    std::function<void(const EngineRunStats &)> onDone_;
    uint64_t chunksTotal_ = 0;
    uint64_t chunksIssued_ = 0;
    uint64_t chunksComputed_ = 0;
    uint64_t batchedChunks_ = 0;
    int inFlight_ = 0;
    EngineRunStats stats_;

    /** One in-flight arrival in a batched replay, ordered by
     * (when, issue order) exactly as the event queue would fire. */
    struct BatchArrival {
        double when;
        uint64_t idx;
        double bytes;
        bool miss;
    };
    std::vector<BatchArrival> batchHeap_; // reused across runs

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
    GABLES_ASSERT(inFlight_ > 0, "data arrival with nothing in flight");
    --inFlight_;
    stats_.bytes += chunk_bytes;
    if (was_miss)
        stats_.missBytes += chunk_bytes;

    double ops = chunk_bytes * job_.opsPerByte;
    chunkComputed(ops, compute_.acquire(eq_->now(), ops));

    issueRequests();
}

/**
 * Account for a chunk whose compute was just booked to finish at
 * @p done_at. The compute resource is FIFO with a constant latency,
 * so this engine's completions come in booking order (coordination
 * bookings from other engines keep it): ops add up in the order the
 * completions would fire, and the last chunk booked is the last to
 * finish, so the run ends at its completion.
 */
inline void
IpEngine::chunkComputed(double ops, double done_at)
{
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
