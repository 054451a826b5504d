/**
 * @file
 * Bandwidth-server resources: the building block of the throughput-
 * level SoC simulator. A resource serves requests FIFO at a fixed
 * byte rate with an optional per-request latency; contention between
 * requesters emerges from the shared busy window. Fabrics, the DRAM
 * controller, IP local memories, and the coordination CPU are all
 * instances.
 */

#ifndef GABLES_SIM_RESOURCE_H
#define GABLES_SIM_RESOURCE_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.h"

namespace gables {

namespace telemetry {
class Counter;
class Distribution;
class Histogram;
class StatsRegistry;
} // namespace telemetry

namespace sim {

class TraceRecorder;

/** One booked service interval of a resource. */
struct ServiceInterval {
    double start;
    double duration;
    double bytes;
};

/**
 * A resource's booked service intervals, in booking order, stored in
 * 8 bytes per booking: its start time, plus one run record per
 * stretch of consecutive bookings that share a duration and a byte
 * count. A new run opens only when either bit pattern changes, which
 * is rare: chunked streams book one transfer size, and its service
 * time is the memoized bytes / bandwidth quotient.
 */
class ServiceLog
{
  public:
    /** @return Number of bookings logged. */
    size_t size() const { return starts_.size(); }

    /** @return True when nothing has been logged. */
    bool empty() const { return starts_.empty(); }

    /** @return Booking @p i (O(log runs)). */
    ServiceInterval operator[](size_t i) const;

    /** Call @p fn with every booking, in booking order. */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (size_t r = 0; r < runs_.size(); ++r) {
            const Run &run = runs_[r];
            size_t end = r + 1 < runs_.size() ? runs_[r + 1].first
                                              : starts_.size();
            for (size_t i = run.first; i < end; ++i)
                fn(ServiceInterval{starts_[i], run.duration, run.bytes});
        }
    }

    /** Append one booking. */
    void push(double start, double duration, double bytes)
    {
        if (runs_.empty() || !sameBits(runs_.back().duration, duration) ||
            !sameBits(runs_.back().bytes, bytes))
            openRun(duration, bytes);
        starts_.push_back(start);
    }

    /** Pre-size for @p bookings start times. */
    void reserve(size_t bookings) { starts_.reserve(bookings); }

    /** Forget every booking (capacity is kept). */
    void clear()
    {
        starts_.clear();
        runs_.clear();
    }

    /** @return Bytes of memory held (capacity, not size — reserved
     * space counts). */
    size_t capacityBytes() const
    {
        return starts_.capacity() * sizeof(double) +
               runs_.capacity() * sizeof(Run);
    }

  private:
    /** Bookings [first, next run's first) share these values. */
    struct Run {
        uint64_t first;
        double duration;
        double bytes;
    };

    static bool sameBits(double a, double b)
    {
        return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
    }

    /** Start a run at the next booking (see push). */
    void openRun(double duration, double bytes);

    std::vector<double> starts_;
    std::vector<Run> runs_;
};

/**
 * A FIFO bandwidth server.
 *
 * acquire(arrival, bytes) books the next free service slot:
 *   start      = max(arrival, busyUntil)
 *   busyUntil  = start + bytes / bandwidth
 *   completion = busyUntil + latency
 *
 * The model is store-and-forward: a request fully occupies the
 * server for its transfer time, and downstream hops see the
 * completion time as their arrival.
 */
class BandwidthResource
{
  public:
    /**
     * @param name      Display name for stats.
     * @param bandwidth Service rate in bytes/s, > 0.
     * @param latency   Added per-request latency in seconds, >= 0.
     */
    BandwidthResource(std::string name, double bandwidth,
                      double latency = 0.0);

    /** @return Display name. */
    const std::string &name() const { return name_; }

    /**
     * Book a transfer of @p bytes arriving at @p arrival.
     *
     * Defined inline: the uninstrumented booking (no tracer, no
     * telemetry) is the simulator's innermost loop.
     *
     * @return Completion time (seconds).
     */
    double acquire(double arrival, double bytes)
    {
        GABLES_ASSERT(bytes >= 0.0, "negative transfer size");
        double start = std::max(arrival, busyUntil_);
        // Chunked streams divide the same request size by the same
        // (immutable) bandwidth on every booking; memoizing the
        // quotient takes the divide off the booking dependency chain.
        // IEEE division is deterministic, so the cached quotient is
        // bit-identical to recomputing it.
        double service;
        if (bytes == memoBytes_) {
            service = memoService_;
        } else {
            service = bytes / bandwidth_;
            memoBytes_ = bytes;
            memoService_ = service;
        }
        return book(arrival, start, service, bytes);
    }

    /**
     * Book a fixed service time (e.g. an interrupt-handling cost)
     * instead of a byte transfer.
     *
     * @return Completion time (seconds).
     */
    double acquireService(double arrival, double service_seconds)
    {
        GABLES_ASSERT(service_seconds >= 0.0, "negative service time");
        double start = std::max(arrival, busyUntil_);
        // No bytes: adding +0.0 to the non-negative byte total keeps
        // its bits.
        return book(arrival, start, service_seconds, 0.0);
    }

    /** @return Time the server next becomes free. */
    double busyUntil() const { return busyUntil_; }

    /** @return Total bytes served so far. */
    double bytesServed() const { return bytesServed_; }

    /** @return Total busy (service) time accumulated so far. */
    double busyTime() const { return busyTime_; }

    /** @return Requests served so far. */
    uint64_t requestsServed() const { return requests_; }

    /**
     * @return Utilization over [0, end_time]: busyTime / end_time.
     */
    double utilization(double end_time) const;

    /** Clear booking state and statistics. */
    void reset();

    /**
     * Attach a trace recorder: every subsequent service interval is
     * recorded under this resource's name, and a "<name>.queue"
     * counter track samples the queue depth at each arrival. Pass
     * nullptr to detach.
     */
    void setTracer(TraceRecorder *tracer)
    {
        tracer_ = tracer;
        updateInstrumented();
    }

    /**
     * Attach a telemetry registry: registers (or re-binds to)
     * "<name>.wait_time", "<name>.service_time", "<name>.queue_depth"
     * distributions, a "<name>.queue_depth_hist" histogram, and
     * "<name>.requests" / "<name>.bytes" counters, all updated per
     * acquire. Telemetry is purely observational: booking arithmetic
     * is untouched, so simulation results are bit-identical with it
     * attached or not. Pass nullptr to detach.
     */
    void attachTelemetry(telemetry::StatsRegistry *registry);

    /**
     * Keep (or stop keeping) the service-interval log of every
     * subsequent booking, pre-sized for @p expected_entries bookings
     * so a run doesn't reallocate it mid-run. Off by default:
     * SimSoc::run keeps it exactly in runs that sample epochs. See
     * docs/OBSERVABILITY.md for the log's memory model.
     */
    void keepServiceLog(bool keep, size_t expected_entries = 0);

    /**
     * @return Intervals booked since the last reset while
     * keepServiceLog was on; feeds post-run epoch sampling.
     */
    const ServiceLog &serviceLog() const { return serviceLog_; }

  private:
    /**
     * Book the service interval [start, start + service) of a
     * request that arrived at @p arrival, then hand it to the tracer
     * and telemetry when either is attached. Instrumentation only
     * reads the interval, so results are bit-identical either way.
     *
     * @return Completion time (seconds).
     */
    double book(double arrival, double start, double service,
                double bytes)
    {
        busyUntil_ = start + service;
        busyTime_ += service;
        bytesServed_ += bytes;
        ++requests_;
        if (instrumented_)
            observe(arrival, start, service, bytes);
        return busyUntil_ + latency_;
    }

    /** Trace, sample and/or log one booked interval (see book()). */
    void observe(double arrival, double start, double service,
                 double bytes);

    void updateInstrumented()
    {
        instrumented_ =
            tracer_ != nullptr || registry_ != nullptr || keepLog_;
    }

    std::string name_;
    double bandwidth_;
    double latency_;
    // True iff a tracer or registry is attached or the service log
    // is kept; one flag so the inline acquire fast path tests a
    // single branch.
    bool instrumented_ = false;
    bool keepLog_ = false;
    // Last transfer size and its service-time quotient (acquire()).
    double memoBytes_ = -1.0;
    double memoService_ = 0.0;
    TraceRecorder *tracer_ = nullptr;
    double busyUntil_ = 0.0;
    double bytesServed_ = 0.0;
    double busyTime_ = 0.0;
    uint64_t requests_ = 0;

    // Telemetry bindings (all null when detached).
    telemetry::StatsRegistry *registry_ = nullptr;
    telemetry::Distribution *waitTime_ = nullptr;
    telemetry::Distribution *serviceTime_ = nullptr;
    telemetry::Distribution *queueDepth_ = nullptr;
    telemetry::Histogram *queueDepthHist_ = nullptr;
    telemetry::Counter *requestCount_ = nullptr;
    telemetry::Counter *byteCount_ = nullptr;
    ServiceLog serviceLog_;
    // Completion times of booked requests still in service at the
    // latest arrival, oldest first: a ring of inServiceCount_ entries
    // from inServiceHead_ (its capacity a power of two). The count is
    // the queue depth sample.
    std::vector<double> inService_;
    size_t inServiceHead_ = 0;
    size_t inServiceCount_ = 0;
};

} // namespace sim
} // namespace gables

#endif // GABLES_SIM_RESOURCE_H
