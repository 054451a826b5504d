#include "sim/ip_engine.h"

#include <algorithm>
#include <cmath>

#include "telemetry/stats.h"
#include "util/logging.h"

namespace gables {
namespace sim {

IpEngine::IpEngine(IpEngineConfig config, EventQueue *eq,
                   BandwidthResource *link, MemoryPath path,
                   LocalMemory *local, BandwidthResource *coordinator)
    : config_(std::move(config)), eq_(eq), link_(link),
      path_(std::move(path)), local_(local), coordinator_(coordinator),
      compute_(config_.name + ".compute", config_.opsPerSec)
{
    GABLES_ASSERT(eq_ != nullptr, "engine needs an event queue");
    GABLES_ASSERT(link_ != nullptr, "engine needs a link resource");
    if (!(config_.opsPerSec > 0.0))
        fatal("engine '" + config_.name + "': ops/s must be > 0");
    if (!(config_.requestBytes > 0.0))
        fatal("engine '" + config_.name + "': request size must be > 0");
    if (config_.maxOutstanding < 1)
        fatal("engine '" + config_.name +
              "': need at least one outstanding request");
}

double
IpEngine::chunkBytes(uint64_t index) const
{
    // All chunks are requestBytes except a possibly-short final one.
    if (index + 1 < chunksTotal_)
        return config_.requestBytes;
    double tail = job_.totalBytes -
                  config_.requestBytes * static_cast<double>(index);
    return tail > 0.0 ? tail : config_.requestBytes;
}

void
IpEngine::start(const KernelJob &job,
                std::function<void(const EngineRunStats &)> on_done)
{
    if (running_)
        fatal("engine '" + config_.name + "' is already running a job");
    if (!(job.totalBytes > 0.0) || !(job.workingSetBytes > 0.0))
        fatal("kernel job sizes must be > 0");
    if (!(job.opsPerByte > 0.0))
        fatal("kernel job ops/byte must be > 0");
    if (job.coordinationTime > 0.0 && coordinator_ == nullptr)
        fatal("engine '" + config_.name +
              "': job needs coordination but no coordinator is wired");

    running_ = true;
    job_ = job;
    onDone_ = std::move(on_done);
    chunksTotal_ = static_cast<uint64_t>(
        std::ceil(job.totalBytes / config_.requestBytes));
    GABLES_ASSERT(chunksTotal_ > 0, "job has no chunks");
    chunksIssued_ = 0;
    chunksComputed_ = 0;
    batchedChunks_ = 0;
    inFlight_ = 0;
    stats_ = EngineRunStats{};
    stats_.name = config_.name;
    stats_.startTime = eq_->now();

    if (local_ != nullptr)
        local_->setWorkingSet(job.workingSetBytes);

    if (batchingAllowed_)
        runBatched();
    else
        issueRequests();
}

double
IpEngine::issueOneChunk(double now, double &bytes, bool &was_miss)
{
    bytes = chunkBytes(chunksIssued_);
    ++chunksIssued_;
    ++inFlight_;

    bool hit = local_ != nullptr && local_->nextIsHit();
    was_miss = !hit;
    if (issuedCount_ != nullptr) {
        issuedCount_->add(1.0);
        (hit ? hitRequests_ : missRequests_)->add(1.0);
    }
    double completion;
    if (hit) {
        completion = local_->resource().acquire(now, bytes);
    } else {
        // Misses traverse the private link then the shared path.
        completion = link_->acquire(now, bytes);
        completion = path_.request(completion, bytes);
        if (job_.coordinationTime > 0.0) {
            // The coordinator must service the request's completion
            // interrupt before the data is usable.
            double coord = coordinator_->acquireService(
                now, job_.coordinationTime);
            completion = std::max(completion, coord);
            if (coordInterrupts_ != nullptr)
                coordInterrupts_->add(1.0);
        }
    }
    return completion;
}

void
IpEngine::issueRequests()
{
    // No events fire while this loop runs, so now() is invariant.
    double now = eq_->now();
    while (running_ && inFlight_ < config_.maxOutstanding &&
           chunksIssued_ < chunksTotal_) {
        double bytes;
        bool was_miss;
        double completion = issueOneChunk(now, bytes, was_miss);
        eq_->scheduleDataArrived(completion, this, bytes, was_miss);
    }
}

void
IpEngine::runBatched()
{
    // Replay the event-driven run in a tight loop. Because this
    // engine is the sole requester (see setBatchingAllowed), the only
    // events the queue would process are this engine's own arrivals,
    // so their firing order is fully known: (completion, issue-index)
    // order, a min-heap over in-flight chunks. Each arrival is handled
    // as onDataArrived handles it, so every acquire call, stats
    // accumulation, telemetry bump, and trace record runs in the
    // exact order — and therefore bit pattern — of the unbatched run.
    //
    // Min-heap order: earliest (completion, issue index) first, the
    // order the queue would fire these arrivals (arrival seq order
    // equals issue order).
    auto later_arrival = [](const BatchArrival &a,
                            const BatchArrival &b) {
        if (a.when != b.when)
            return a.when > b.when;
        return a.idx > b.idx;
    };
    batchHeap_.clear();
    double now = stats_.startTime;
    while (inFlight_ < config_.maxOutstanding &&
           chunksIssued_ < chunksTotal_) {
        uint64_t idx = chunksIssued_;
        double bytes;
        bool was_miss;
        double completion = issueOneChunk(now, bytes, was_miss);
        batchHeap_.push_back({completion, idx, bytes, was_miss});
        std::push_heap(batchHeap_.begin(), batchHeap_.end(),
                       later_arrival);
    }

    while (!batchHeap_.empty()) {
        std::pop_heap(batchHeap_.begin(), batchHeap_.end(),
                      later_arrival);
        BatchArrival arr = batchHeap_.back();
        batchHeap_.pop_back();

        --inFlight_;
        stats_.bytes += arr.bytes;
        if (arr.miss)
            stats_.missBytes += arr.bytes;
        double ops = arr.bytes * job_.opsPerByte;
        chunkComputed(ops, compute_.acquire(arr.when, ops));

        while (inFlight_ < config_.maxOutstanding &&
               chunksIssued_ < chunksTotal_) {
            uint64_t idx = chunksIssued_;
            double bytes;
            bool was_miss;
            double completion =
                issueOneChunk(arr.when, bytes, was_miss);
            batchHeap_.push_back({completion, idx, bytes, was_miss});
            std::push_heap(batchHeap_.begin(), batchHeap_.end(),
                           later_arrival);
        }
    }
    GABLES_ASSERT(chunksComputed_ == chunksTotal_,
                  "batched replay lost chunks");
    batchedChunks_ = chunksTotal_;
}

void
IpEngine::onRunDone()
{
    running_ = false;
    stats_.endTime = eq_->now();
    GABLES_ASSERT(stats_.endTime > stats_.startTime,
                  "zero-duration engine run");
    if (onDone_)
        onDone_(stats_);
}

void
IpEngine::attachTelemetry(telemetry::StatsRegistry *registry)
{
    compute_.attachTelemetry(registry);
    if (registry == nullptr) {
        issuedCount_ = computedCount_ = nullptr;
        hitRequests_ = missRequests_ = coordInterrupts_ = nullptr;
        return;
    }
    const std::string &name = config_.name;
    issuedCount_ = &registry->counter(name + ".chunks_issued",
                                      "memory requests issued");
    computedCount_ = &registry->counter(name + ".chunks_computed",
                                        "chunks fully computed");
    hitRequests_ = &registry->counter(name + ".hit_requests",
                                      "requests served by the local "
                                      "memory");
    missRequests_ = &registry->counter(name + ".miss_requests",
                                       "requests sent off-IP");
    coordInterrupts_ = &registry->counter(
        name + ".coord_interrupts",
        "completion interrupts charged on the coordinator");
}

void
IpEngine::reset()
{
    GABLES_ASSERT(!running_, "cannot reset a running engine");
    compute_.reset();
    chunksTotal_ = chunksIssued_ = chunksComputed_ = 0;
    batchedChunks_ = 0;
    batchingAllowed_ = false;
    inFlight_ = 0;
    stats_ = EngineRunStats{};
}

} // namespace sim
} // namespace gables
