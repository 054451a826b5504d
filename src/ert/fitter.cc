#include "ert/fitter.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace gables {

Roofline
RooflineFit::roofline(const std::string &name) const
{
    return Roofline(peakOps, peakBw, name);
}

RooflineFit
RooflineFitter::fitDram(const std::vector<ErtSample> &samples)
{
    if (samples.empty())
        fatal("roofline fit needs at least one sample");

    RooflineFit result;
    for (const ErtSample &s : samples) {
        result.peakOps = std::max(result.peakOps, s.opsRate);
        result.peakBw = std::max(result.peakBw, s.missByteRate);
    }
    if (!(result.peakOps > 0.0) || !(result.peakBw > 0.0))
        fatal("roofline fit: samples contain no positive rates");
    result.ridge = result.peakOps / result.peakBw;

    for (const ErtSample &s : samples) {
        double predicted =
            std::min(result.peakOps, result.peakBw * s.opsPerByte);
        double residual =
            std::fabs(s.opsRate - predicted) / predicted;
        result.maxRelResidual = std::max(result.maxRelResidual,
                                         residual);
    }
    return result;
}

} // namespace gables
