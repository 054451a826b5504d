#include "core/serialized.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace gables {

SerializedResult
SerializedModel::evaluate(const SocSpec &soc, const Usecase &usecase)
{
    checkPair(soc, usecase);

    SerializedResult result;
    result.ipTimes.assign(soc.numIps(), 0.0);

    double total = 0.0;
    for (size_t i = 0; i < soc.numIps(); ++i) {
        const IpWork &w = usecase.at(i);
        if (w.fraction == 0.0)
            continue;
        double ci = w.fraction / soc.ipPeakPerf(i);
        double di =
            std::isinf(w.intensity) ? 0.0 : w.fraction / w.intensity;
        double t = std::max({di / soc.bpeak(), di / soc.ip(i).bandwidth,
                             ci});
        result.ipTimes[i] = t;
        total += t;
    }
    GABLES_ASSERT(total > 0.0, "serialized usecase has zero total time");
    result.attainable = 1.0 / total;

    double worst = -1.0;
    for (size_t i = 0; i < result.ipTimes.size(); ++i) {
        if (result.ipTimes[i] > worst) {
            worst = result.ipTimes[i];
            result.dominantIp = static_cast<int>(i);
        }
    }
    result.dominantShare = worst / total;
    return result;
}

} // namespace gables
