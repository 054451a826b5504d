/**
 * @file
 * The simulated memory system: a path of bandwidth resources from an
 * IP's link through fabric hops to the DRAM controller, plus an
 * optional per-IP local memory (cache/scratchpad) that filters
 * requests by working-set fit.
 */

#ifndef GABLES_SIM_MEMORY_SYSTEM_H
#define GABLES_SIM_MEMORY_SYSTEM_H

#include <memory>
#include <string>
#include <vector>

#include "sim/resource.h"

namespace gables {

namespace telemetry {
class Counter;
class StatsRegistry;
} // namespace telemetry

namespace sim {

/**
 * An ordered chain of bandwidth resources a memory request traverses
 * (IP link, one or more fabrics, DRAM controller), store-and-forward.
 */
class MemoryPath
{
  public:
    /** Construct an empty path; append hops with addHop(). */
    MemoryPath() = default;

    /**
     * Append a hop; hops are traversed in insertion order. The path
     * holds a non-owning pointer — the SimSoc owns all resources.
     */
    void addHop(BandwidthResource *hop);

    /** @return The hops in traversal order. */
    const std::vector<BandwidthResource *> &hops() const { return hops_; }

    /**
     * Book a transfer of @p bytes arriving at @p arrival through all
     * hops in order. Inline so the per-hop acquire() bookings fold
     * into the caller's chunk-issue loop.
     *
     * @return Completion time at the last hop.
     */
    double request(double arrival, double bytes) const
    {
        GABLES_ASSERT(!hops_.empty(), "memory path has no hops");
        double t = arrival;
        for (BandwidthResource *hop : hops_)
            t = hop->acquire(t, bytes);
        return t;
    }

  private:
    std::vector<BandwidthResource *> hops_;
};

/**
 * A per-IP local memory (cache or scratchpad). Requests whose
 * working set fits are served locally at the local bandwidth; when
 * the working set exceeds capacity, the non-fitting fraction misses
 * to the memory path. Misses are spread deterministically and evenly
 * over the request stream with an error-accumulator (Bresenham
 * style), so simulations are exactly reproducible.
 */
class LocalMemory
{
  public:
    /**
     * @param name      Display name.
     * @param capacity  Capacity in bytes, >= 0 (0 disables hits).
     * @param bandwidth Local service rate (bytes/s).
     * @param latency   Local hit latency (s).
     */
    LocalMemory(std::string name, double capacity, double bandwidth,
                double latency);

    /** @return The hit-side bandwidth resource (for stats). */
    BandwidthResource &resource() { return resource_; }
    const BandwidthResource &resource() const { return resource_; }

    /** @return Capacity in bytes. */
    double capacity() const { return capacity_; }

    /**
     * Set the working-set size of the running kernel; determines the
     * hit ratio via fractional fit: hit = min(1, capacity/set).
     */
    void setWorkingSet(double working_set_bytes);

    /** @return The current hit ratio in [0, 1]. */
    double hitRatio() const { return hitRatio_; }

    /**
     * Classify the next request: true if it hits locally. Uses the
     * deterministic accumulator so exactly hitRatio of a long stream
     * hits.
     */
    bool nextIsHit();

    /**
     * Attach a telemetry registry: registers "<name>.hits" and
     * "<name>.misses" counters bumped by nextIsHit(), and forwards
     * to the hit-side resource. Pass nullptr to detach.
     */
    void attachTelemetry(telemetry::StatsRegistry *registry);

    /** Reset the accumulator and stats. */
    void reset();

  private:
    double capacity_;
    BandwidthResource resource_;
    double hitRatio_ = 0.0;
    double accumulator_ = 0.0;
    telemetry::Counter *hitCount_ = nullptr;
    telemetry::Counter *missCount_ = nullptr;
};

} // namespace sim
} // namespace gables

#endif // GABLES_SIM_MEMORY_SYSTEM_H
