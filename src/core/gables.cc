#include "core/gables.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/interconnect.h"
#include "core/memside.h"
#include "util/logging.h"

namespace gables {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

std::string
toString(BottleneckKind kind)
{
    switch (kind) {
      case BottleneckKind::IpCompute:
        return "IP compute";
      case BottleneckKind::IpBandwidth:
        return "IP bandwidth";
      case BottleneckKind::Memory:
        return "memory interface";
      case BottleneckKind::Bus:
        return "bus";
    }
    return "unknown";
}

std::string
GablesResult::bottleneckLabel(const SocSpec &soc,
                              const InterconnectModel *interconnect) const
{
    if (bottleneck == BottleneckKind::Bus) {
        if (interconnect == nullptr)
            return "bus " + std::to_string(bottleneckBus);
        return "bus '" +
               interconnect->buses()
                   .at(static_cast<size_t>(bottleneckBus))
                   .name +
               "'";
    }
    if (bottleneckIp < 0)
        return "memory interface (Bpeak)";
    std::string label = soc.ipLabel(static_cast<size_t>(bottleneckIp));
    label += bottleneck == BottleneckKind::IpCompute ? " compute (Ai*Ppeak)"
                                                     : " link bandwidth (Bi)";
    return label;
}

GablesResult
GablesModel::evaluate(const SocSpec &soc, const Usecase &usecase,
                      const MemSideMemory *memside,
                      const InterconnectModel *interconnect)
{
    checkPair(soc, usecase);
    const size_t n = soc.numIps();
    if (memside != nullptr && memside->missRatios().size() != n)
        fatal("memory-side extension has " +
              std::to_string(memside->missRatios().size()) +
              " miss ratios but SoC has " + std::to_string(n) + " IPs");
    if (interconnect != nullptr && interconnect->numIps() != n)
        fatal("interconnect use matrix has " +
              std::to_string(interconnect->numIps()) +
              " rows but SoC has " + std::to_string(n) + " IPs");

    GablesResult result;
    result.ips.resize(n);

    double max_time = 0.0;
    double dram_bytes = 0.0;

    for (size_t i = 0; i < n; ++i) {
        const IpWork &w = usecase.at(i);
        IpTiming &t = result.ips[i];
        if (w.fraction > 0.0) {
            t.computeTime = w.fraction / soc.ipPeakPerf(i);
            t.dataBytes =
                std::isinf(w.intensity) ? 0.0 : w.fraction / w.intensity;
            t.transferTime = t.dataBytes / soc.ip(i).bandwidth;
            t.time = std::max(t.transferTime, t.computeTime);
            t.perfBound = 1.0 / t.time;
        } else {
            // No work at this IP: it contributes no time and no
            // traffic, and its scaled roofline is unbounded.
            t.perfBound = kInf;
        }
        // A memory-side SRAM filters only the DRAM traffic (Eq. 15).
        dram_bytes += memside != nullptr
                          ? memside->missRatios()[i] * t.dataBytes
                          : t.dataBytes;
        max_time = std::max(max_time, t.time);
    }

    result.totalDataBytes = dram_bytes;
    result.memoryTime = dram_bytes / soc.bpeak();
    // The same bits as usecase.averageIntensity() when unfiltered:
    // idle IPs add an exact +0.0 to the sum.
    result.averageIntensity = dram_bytes > 0.0 ? 1.0 / dram_bytes : kInf;
    result.memoryPerfBound = result.memoryTime > 0.0
                                 ? 1.0 / result.memoryTime
                                 : kInf;
    max_time = std::max(max_time, result.memoryTime);

    // Each bus carries the full Di of the IPs routed over it (Eq. 16).
    if (interconnect != nullptr) {
        result.busTimes.resize(interconnect->numBuses());
        for (size_t j = 0; j < result.busTimes.size(); ++j) {
            double bytes = 0.0;
            for (size_t i = 0; i < n; ++i) {
                if (interconnect->uses(i, j))
                    bytes += result.ips[i].dataBytes;
            }
            result.busTimes[j] = bytes / interconnect->buses()[j].bandwidth;
            max_time = std::max(max_time, result.busTimes[j]);
        }
    }

    GABLES_ASSERT(max_time > 0.0,
                  "usecase produced zero total time; Ppeak infinite?");
    result.attainable = 1.0 / max_time;

    // Bottleneck attribution: memory wins ties, then the lowest IP
    // index, then the lowest bus index.
    if (result.memoryTime >= max_time)
        return result; // bottleneck defaults to Memory
    for (size_t i = 0; i < n; ++i) {
        const IpTiming &t = result.ips[i];
        if (t.time >= max_time) {
            result.bottleneckIp = static_cast<int>(i);
            result.bottleneck = t.computeTime >= t.transferTime
                                    ? BottleneckKind::IpCompute
                                    : BottleneckKind::IpBandwidth;
            return result;
        }
    }
    for (size_t j = 0; j < result.busTimes.size(); ++j) {
        if (result.busTimes[j] >= max_time) {
            result.bottleneckBus = static_cast<int>(j);
            result.bottleneck = BottleneckKind::Bus;
            break;
        }
    }
    return result;
}

double
GablesModel::attainablePerfForm(const SocSpec &soc, const Usecase &usecase)
{
    checkPair(soc, usecase);

    double bound = kInf;
    for (size_t i = 0; i < soc.numIps(); ++i) {
        const IpWork &w = usecase.at(i);
        if (w.fraction == 0.0)
            continue; // omit the term to avoid divide-by-zero
        double roof = std::isinf(w.intensity)
                          ? soc.ipPeakPerf(i)
                          : std::min(soc.ip(i).bandwidth * w.intensity,
                                     soc.ipPeakPerf(i));
        bound = std::min(bound, roof / w.fraction);
    }

    double iavg = usecase.averageIntensity();
    if (!std::isinf(iavg))
        bound = std::min(bound, soc.bpeak() * iavg);

    GABLES_ASSERT(std::isfinite(bound),
                  "performance-form bound is not finite");
    return bound;
}

} // namespace gables
