/**
 * @file
 * The classic single-processor Roofline model (Williams, Waterman,
 * Patterson, CACM 2009) that Gables builds on: attainable performance
 * is bounded by peak compute (the flat roof) and by peak memory
 * bandwidth times operational intensity (the slanted roof), with
 * optional lesser ceilings for restricted execution modes (e.g.
 * no-SIMD) or restricted memory streams.
 */

#ifndef GABLES_CORE_ROOFLINE_H
#define GABLES_CORE_ROOFLINE_H

#include <string>
#include <vector>

namespace gables {

/**
 * A named lesser bound below the roof: either a compute ceiling
 * (ops/s) such as "without SIMD", or a bandwidth ceiling (bytes/s)
 * such as "without prefetch".
 */
struct Ceiling {
    /** Human-readable label for plots. */
    std::string label;
    /** Ceiling value: ops/s for compute, bytes/s for bandwidth. */
    double value;
};

/**
 * Single-IP roofline: peak performance, peak bandwidth, and optional
 * ceilings.
 *
 * All rates are in base units (ops/s, bytes/s); operational intensity
 * is in ops/byte.
 */
class Roofline
{
  public:
    /**
     * @param peak_perf Peak computation rate (ops/s), > 0.
     * @param peak_bw   Peak bandwidth to data (bytes/s), > 0.
     * @param name      Label used in plots and reports.
     * @throws FatalError on non-positive inputs.
     */
    Roofline(double peak_perf, double peak_bw,
             std::string name = "roofline");

    /** @return Peak compute rate (ops/s). */
    double peakPerf() const { return peakPerf_; }

    /** @return Peak bandwidth (bytes/s). */
    double peakBw() const { return peakBw_; }

    /** @return Display name. */
    const std::string &name() const { return name_; }

    /**
     * Add a compute ceiling strictly below the roof.
     *
     * @param label Display label.
     * @param ops_per_sec Ceiling value in ops/s, in (0, peakPerf].
     */
    void addComputeCeiling(const std::string &label, double ops_per_sec);

    /**
     * Add a bandwidth ceiling strictly below the peak bandwidth.
     *
     * @param label Display label.
     * @param bytes_per_sec Ceiling value in bytes/s, in (0, peakBw].
     */
    void addBandwidthCeiling(const std::string &label,
                             double bytes_per_sec);

    /** @return Compute ceilings, sorted descending by value. */
    const std::vector<Ceiling> &computeCeilings() const
    {
        return computeCeilings_;
    }

    /**
     * Attainable performance at operational intensity @p intensity,
     * against the full roof (ceilings ignored):
     * min(peakPerf, peakBw * I).
     *
     * @param intensity Operational intensity in ops/byte, >= 0.
     *                  Infinity means no memory traffic and returns
     *                  peakPerf.
     */
    double attainable(double intensity) const;

    /**
     * Attainable performance under the lowest applicable ceilings:
     * min over (lowest compute ceiling or roof,
     *           (lowest bandwidth ceiling or peak bw) * I).
     */
    double attainableWithCeilings(double intensity) const;

    /**
     * The ridge point: the operational intensity at which the slanted
     * and flat roofs meet (peakPerf / peakBw). Software with
     * intensity above this is compute-bound; below, bandwidth-bound.
     */
    double ridgePoint() const { return peakPerf_ / peakBw_; }

    /** @return True if intensity @p i puts software in the
     * compute-bound region (i >= ridge point). */
    bool computeBound(double intensity) const
    {
        return intensity >= ridgePoint();
    }

  private:
    double peakPerf_;
    double peakBw_;
    std::string name_;
    std::vector<Ceiling> computeCeilings_;
    std::vector<Ceiling> bandwidthCeilings_;
};

} // namespace gables

#endif // GABLES_CORE_ROOFLINE_H
