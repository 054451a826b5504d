/**
 * @file
 * Roofline fitting: turn ERT samples into the pessimistic
 * ("achievable ceiling") roofline estimate the paper uses in Section
 * IV — peak compute from the intensity-saturated samples, peak
 * bandwidth from the bandwidth-bound samples — plus goodness-of-fit
 * diagnostics.
 */

#ifndef GABLES_ERT_FITTER_H
#define GABLES_ERT_FITTER_H

#include <vector>

#include "core/roofline.h"
#include "ert/ert.h"

namespace gables {

/** A fitted roofline plus fit diagnostics. */
struct RooflineFit {
    /** Estimated peak compute rate (ops/s). */
    double peakOps = 0.0;
    /** Estimated peak data bandwidth (bytes/s). */
    double peakBw = 0.0;
    /** Ridge point peakOps / peakBw (ops/byte). */
    double ridge = 0.0;
    /**
     * Largest relative deviation of any sample from the fitted
     * min(peakOps, peakBw * I) curve; small values mean the samples
     * really do trace a roofline.
     */
    double maxRelResidual = 0.0;

    /** @return The fit as a Roofline object. */
    Roofline roofline(const std::string &name) const;
};

/**
 * Fits rooflines to ERT samples.
 */
class RooflineFitter
{
  public:
    /**
     * Fit against the off-IP (DRAM-side) data rate — the paper's
     * DRAM rooflines of Figures 7 and 9.
     */
    static RooflineFit fitDram(const std::vector<ErtSample> &samples);
};

} // namespace gables

#endif // GABLES_ERT_FITTER_H
