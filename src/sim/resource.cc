#include "sim/resource.h"

#include <algorithm>

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
ServiceLog::openRun(double duration, double bytes)
{
    runs_.push_back(Run{starts_.size(), duration, bytes});
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
    // including the one just booked. FIFO service makes completion
    // times monotone in booking order, so the drained requests are
    // always the oldest, at the ring's head.
    size_t mask = inService_.size() - 1;
    while (inServiceCount_ != 0 && inService_[inServiceHead_] <= arrival) {
        inServiceHead_ = (inServiceHead_ + 1) & mask;
        --inServiceCount_;
    }
    if (inServiceCount_ == inService_.size()) {
        // Full: rotate the oldest entry to the front, then double.
        std::rotate(inService_.begin(),
                    inService_.begin() +
                        static_cast<ptrdiff_t>(inServiceHead_),
                    inService_.end());
        inService_.resize(std::max<size_t>(16, 2 * inService_.size()));
        inServiceHead_ = 0;
        mask = inService_.size() - 1;
    }
    inService_[(inServiceHead_ + inServiceCount_) & mask] =
        start + service;
    double depth = static_cast<double>(++inServiceCount_);

    if (registry_ != nullptr) {
        waitTime_->sample(start - arrival);
        serviceTime_->sample(service);
        queueDepth_->sample(depth);
        queueDepthHist_->sample(depth);
        requestCount_->add(1.0);
        byteCount_->add(bytes);
    }
    if (keepLog_)
        serviceLog_.push(start, service, bytes);
    if (tracer_ != nullptr)
        tracer_->counter(name_ + ".queue", arrival, depth);
}

void
BandwidthResource::attachTelemetry(telemetry::StatsRegistry *registry)
{
    registry_ = registry;
    updateInstrumented();
    inServiceHead_ = inServiceCount_ = 0;
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
BandwidthResource::keepServiceLog(bool keep, size_t expected_entries)
{
    keepLog_ = keep;
    updateInstrumented();
    if (keep)
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
    inServiceHead_ = inServiceCount_ = 0;
}

} // namespace sim
} // namespace gables
