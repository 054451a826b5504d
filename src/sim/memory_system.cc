#include "sim/memory_system.h"

#include <algorithm>

#include "telemetry/stats.h"
#include "util/logging.h"

namespace gables {
namespace sim {

void
MemoryPath::addHop(BandwidthResource *hop)
{
    GABLES_ASSERT(hop != nullptr, "null hop");
    hops_.push_back(hop);
}

LocalMemory::LocalMemory(std::string name, double capacity,
                         double bandwidth, double latency)
    : capacity_(capacity), resource_(std::move(name), bandwidth, latency)
{
    if (!(capacity >= 0.0))
        fatal("local memory capacity must be >= 0");
}

void
LocalMemory::setWorkingSet(double working_set_bytes)
{
    if (!(working_set_bytes > 0.0))
        fatal("working set must be > 0");
    hitRatio_ = std::min(1.0, capacity_ / working_set_bytes);
    accumulator_ = 0.0;
}

bool
LocalMemory::nextIsHit()
{
    accumulator_ += hitRatio_;
    if (accumulator_ >= 1.0 - 1e-12) {
        accumulator_ -= 1.0;
        if (hitCount_ != nullptr)
            hitCount_->add(1.0);
        return true;
    }
    if (missCount_ != nullptr)
        missCount_->add(1.0);
    return false;
}

void
LocalMemory::attachTelemetry(telemetry::StatsRegistry *registry)
{
    resource_.attachTelemetry(registry);
    if (registry == nullptr) {
        hitCount_ = missCount_ = nullptr;
        return;
    }
    const std::string &name = resource_.name();
    hitCount_ = &registry->counter(name + ".hits",
                                   "requests served locally");
    missCount_ = &registry->counter(
        name + ".misses", "requests sent down the memory path");
}

void
LocalMemory::reset()
{
    accumulator_ = 0.0;
    resource_.reset();
}

} // namespace sim
} // namespace gables
