/**
 * @file
 * Axis mapping for plots: linear or logarithmic data-to-pixel
 * transforms with margin handling and tick generation.
 */

#ifndef GABLES_PLOT_AXES_H
#define GABLES_PLOT_AXES_H

#include <string>
#include <vector>

namespace gables {

/** Axis scale type. */
enum class Scale { Linear, Log };

/** One axis of a chart in data space: its scale and range. */
struct AxisRange {
    Scale scale;
    double lo;
    double hi;
};

/**
 * One axis: data range, scale, and mapping onto a pixel interval.
 */
class Axis
{
  public:
    /**
     * @param scale Linear or Log (log requires positive bounds).
     * @param lo    Data value at the low pixel end.
     * @param hi    Data value at the high pixel end, > lo.
     * @param px_lo Pixel coordinate of lo.
     * @param px_hi Pixel coordinate of hi (may be < px_lo for the
     *              flipped y axis of SVG).
     */
    Axis(Scale scale, double lo, double hi, double px_lo, double px_hi);

    /** @return Pixel coordinate of data value @p v (clamped to the
     * data range). */
    double toPixel(double v) const;

    /**
     * Tick positions: powers of ten within range for log axes; a
     * "nice" step subdivision for linear axes.
     */
    std::vector<double> ticks() const;

    /** Format a tick value compactly ("0.01", "1", "100", "1e6"). */
    static std::string formatTick(double v);

  private:
    Scale scale_;
    double lo_;
    double hi_;
    double pxLo_;
    double pxHi_;
};

} // namespace gables

#endif // GABLES_PLOT_AXES_H
