#include "sim/resource.h"

#include <algorithm>
#include <bit>

#include "sim/trace.h"
#include "telemetry/stats.h"
#include "util/logging.h"

namespace gables {
namespace sim {

ServiceInterval
ServiceLog::operator[](size_t i) const
{
    GABLES_ASSERT(i < starts_.size(), "service log index out of range");
    auto after = std::upper_bound(
        runs_.begin(), runs_.end(), i,
        [](size_t index, const Run &run) { return index < run.first; });
    const Run &run = *(after - 1);
    return ServiceInterval{starts_[i], run.duration, run.bytes};
}

void
ServiceLog::push(double start, double duration, double bytes)
{
    if (runs_.empty() ||
        std::bit_cast<uint64_t>(runs_.back().duration) !=
            std::bit_cast<uint64_t>(duration) ||
        std::bit_cast<uint64_t>(runs_.back().bytes) !=
            std::bit_cast<uint64_t>(bytes))
        runs_.push_back(Run{starts_.size(), duration, bytes});
    starts_.push_back(start);
}

BandwidthResource::BandwidthResource(std::string name, double bandwidth,
                                     double latency)
    : name_(std::move(name)), bandwidth_(bandwidth), latency_(latency)
{
    if (!(bandwidth > 0.0))
        fatal("resource '" + name_ + "': bandwidth must be > 0");
    if (!(latency >= 0.0))
        fatal("resource '" + name_ + "': latency must be >= 0");
}

void
BandwidthResource::observe(double arrival, double start, double service,
                           double bytes)
{
    if (tracer_ != nullptr)
        tracer_->record(name_, start, service);

    // Queue depth at this arrival: booked requests not yet drained,
    // including the one just booked.
    while (!inService_.empty() && inService_.front() <= arrival)
        inService_.pop_front();
    inService_.push_back(start + service);
    double depth = static_cast<double>(inService_.size());

    if (registry_ != nullptr) {
        waitTime_->sample(start - arrival);
        serviceTime_->sample(service);
        queueDepth_->sample(depth);
        queueDepthHist_->sample(depth);
        requestCount_->add(1.0);
        byteCount_->add(bytes);
        serviceLog_.push(start, service, bytes);
    }
    if (tracer_ != nullptr)
        tracer_->counter(name_ + ".queue", arrival, depth);
}

void
BandwidthResource::attachTelemetry(telemetry::StatsRegistry *registry)
{
    registry_ = registry;
    instrumented_ = tracer_ != nullptr || registry_ != nullptr;
    serviceLog_.clear();
    inService_.clear();
    if (registry == nullptr) {
        waitTime_ = serviceTime_ = queueDepth_ = nullptr;
        queueDepthHist_ = nullptr;
        requestCount_ = byteCount_ = nullptr;
        return;
    }
    waitTime_ = &registry->distribution(
        name_ + ".wait_time",
        "seconds a request waited between arrival and service start");
    serviceTime_ = &registry->distribution(
        name_ + ".service_time", "seconds of service per request");
    queueDepth_ = &registry->distribution(
        name_ + ".queue_depth",
        "requests in service or queued, sampled at each arrival");
    queueDepthHist_ = &registry->histogram(
        name_ + ".queue_depth_hist", 0.0, 64.0, 16,
        "queue-depth-at-arrival histogram");
    requestCount_ =
        &registry->counter(name_ + ".requests", "requests served");
    byteCount_ = &registry->counter(name_ + ".bytes", "bytes served");
}

void
BandwidthResource::reserveLog(size_t expected_entries)
{
    if (registry_ != nullptr)
        serviceLog_.reserve(expected_entries);
}

double
BandwidthResource::utilization(double end_time) const
{
    if (!(end_time > 0.0))
        return 0.0;
    return std::min(1.0, busyTime_ / end_time);
}

void
BandwidthResource::reset()
{
    busyUntil_ = 0.0;
    bytesServed_ = 0.0;
    busyTime_ = 0.0;
    requests_ = 0;
    serviceLog_.clear();
    inService_.clear();
}

} // namespace sim
} // namespace gables
