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
                std::function<void(const EngineRunStats &)> on_done,
                bool alone)
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

    if (alone)
        runBatched();
    else
        issueRequests();
}

/**
 * Issue chunks at @p now while a request slot is free, handing each
 * issued chunk to @p sink. Both run paths issue through this loop;
 * only the sink differs.
 */
template <typename Sink>
inline void
IpEngine::issueChunks(double now, Sink &&sink)
{
    while (inFlight_ < config_.maxOutstanding &&
           chunksIssued_ < chunksTotal_)
        sink(issueChunk(now));
}

IpEngine::Arrival
IpEngine::issueChunk(double now)
{
    Arrival chunk{now, chunksIssued_, chunkBytes(chunksIssued_), false};
    ++chunksIssued_;
    ++inFlight_;

    bool hit = local_ != nullptr && local_->nextIsHit();
    chunk.miss = !hit;
    if (issuedCount_ != nullptr) {
        issuedCount_->add(1.0);
        (hit ? hitRequests_ : missRequests_)->add(1.0);
    }
    if (hit) {
        chunk.when = local_->resource().acquire(now, chunk.bytes);
    } else {
        // Misses traverse the private link then the shared path.
        chunk.when = link_->acquire(now, chunk.bytes);
        chunk.when = path_.request(chunk.when, chunk.bytes);
        if (job_.coordinationTime > 0.0) {
            // The coordinator must service the request's completion
            // interrupt before the data is usable.
            double coord = coordinator_->acquireService(
                now, job_.coordinationTime);
            chunk.when = std::max(chunk.when, coord);
            if (coordInterrupts_ != nullptr)
                coordInterrupts_->add(1.0);
        }
    }
    return chunk;
}

void
IpEngine::issueRequests()
{
    // No events fire while this loop runs, so now() is invariant.
    issueChunks(eq_->now(), [this](const Arrival &chunk) {
        eq_->scheduleDataArrived(chunk.when, this, chunk.bytes,
                                 chunk.miss);
    });
}

void
IpEngine::runBatched()
{
    // Replay the event-driven run in a tight loop. Because this
    // engine is the sole requester (see start()), the only events the
    // queue would process are this engine's own arrivals, so their
    // firing order is fully known: (completion, issue-index) order, a
    // min-heap over in-flight chunks (arrival seq order equals issue
    // order). Each arrival goes through the same chunkArrived and
    // issueChunks as the arrival event, so every acquire call, stats
    // accumulation, telemetry bump, and trace record runs in the
    // exact order, and therefore bit pattern, of the event-driven run.
    auto later = [](const Arrival &a, const Arrival &b) {
        if (a.when != b.when)
            return a.when > b.when;
        return a.idx > b.idx;
    };
    auto push = [&](const Arrival &chunk) {
        batchHeap_.push_back(chunk);
        std::push_heap(batchHeap_.begin(), batchHeap_.end(), later);
    };
    batchHeap_.clear();
    issueChunks(stats_.startTime, push);
    while (!batchHeap_.empty()) {
        std::pop_heap(batchHeap_.begin(), batchHeap_.end(), later);
        Arrival chunk = batchHeap_.back();
        batchHeap_.pop_back();
        chunkArrived(chunk.when, chunk.bytes, chunk.miss);
        issueChunks(chunk.when, push);
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
    inFlight_ = 0;
    stats_ = EngineRunStats{};
}

} // namespace sim
} // namespace gables
