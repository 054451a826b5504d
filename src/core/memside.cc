#include "core/memside.h"

#include <algorithm>

#include "util/logging.h"

namespace gables {

MemSideMemory::MemSideMemory(std::vector<double> miss_ratios)
    : missRatios_(std::move(miss_ratios))
{
    for (size_t i = 0; i < missRatios_.size(); ++i) {
        double m = missRatios_[i];
        if (!(m >= 0.0 && m <= 1.0))
            fatal("memory-side miss ratio m[" + std::to_string(i) +
                  "] must be in [0, 1]");
    }
}

MemSideMemory
MemSideMemory::uniform(size_t n, double miss_ratio)
{
    return MemSideMemory(std::vector<double>(n, miss_ratio));
}

double
fractionalFitMissRatio(double working_set_bytes, double capacity_bytes)
{
    if (!(working_set_bytes >= 0.0) || !(capacity_bytes >= 0.0))
        fatal("fractionalFitMissRatio: sizes must be non-negative");
    if (working_set_bytes == 0.0)
        return 0.0;
    double miss = 1.0 - capacity_bytes / working_set_bytes;
    return std::clamp(miss, 0.0, 1.0);
}

} // namespace gables
