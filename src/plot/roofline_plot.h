/**
 * @file
 * Roofline and multi-roofline (Gables) charts on log-log axes —
 * Figure 1, Figures 7/9, and the scaled-roofline visualization of
 * paper Section III-C with drop lines at the operating intensities.
 */

#ifndef GABLES_PLOT_ROOFLINE_PLOT_H
#define GABLES_PLOT_ROOFLINE_PLOT_H

#include <algorithm>
#include <string>
#include <vector>

#include "core/roofline.h"
#include "core/soc_spec.h"
#include "core/usecase.h"

namespace gables {

/** One roofline over intensity x: min(slope * x, flat) / divisor. */
struct RooflineCurve {
    std::string label;
    /** Bandwidth roof (bytes/s). */
    double slope;
    /** Compute roof (ops/s); +inf for the memory roofline. */
    double flat;
    /** fi for an IP's scaled roofline, else 1. */
    double divisor = 1.0;
    /** The IP a scaled roofline belongs to; -1 for any other. */
    int ip = -1;

    /** @return The roofline's value at intensity @p x. */
    double at(double x) const { return std::min(slope * x, flat) / divisor; }
};

/** An operating point, marked with a line dropped to the x axis. */
struct DropPoint {
    double x;
    double y;
    std::string label;
};

/** The scaled-roofline picture of one usecase on one SoC (paper
 * Section III-C, Figure 6): what RooflinePlot::addGables() draws and
 * writeVisualizationJson() exports. */
struct GablesCurves {
    /** The scaled roofline of each IP with work, in IP order and
     * labelled "<ip label> (f=<fi>)", then the memory roofline
     * Bpeak * x labelled "memory". */
    std::vector<RooflineCurve> curves;
    /** "I<i>" on IP i's scaled roofline for each IP with work and a
     * finite Ii, then "Iavg" on the memory roofline when Iavg is
     * finite. */
    std::vector<DropPoint> drops;
};

/** @return The picture of @p usecase on @p soc (a checked pair). */
GablesCurves gablesCurves(const SocSpec &soc, const Usecase &usecase);

/**
 * Builder for roofline charts. Add plain rooflines (classic view) or
 * a whole Gables SoC/usecase (scaled view), then render to SVG or
 * ASCII.
 */
class RooflinePlot
{
  public:
    /**
     * @param title  Chart title.
     * @param x_lo   Lowest intensity shown (ops/byte), > 0.
     * @param x_hi   Highest intensity shown.
     */
    RooflinePlot(std::string title, double x_lo = 0.01,
                 double x_hi = 100.0);

    /**
     * Add a classic roofline: flat roof at peakPerf, slanted roof at
     * peakBw * x.
     */
    void addRoofline(const Roofline &roofline);

    /**
     * Add the scaled-roofline picture of a Gables evaluation
     * (gablesCurves()): one scaled roofline per IP with work, the
     * memory roofline, and a drop line at each operating intensity
     * (Ii, Iavg).
     */
    void addGables(const SocSpec &soc, const Usecase &usecase);

    /** @return The SVG document. */
    std::string renderSvg(double width = 720.0,
                          double height = 480.0) const;

    /** @return An ASCII rendering (for the CLI). */
    std::string renderAscii(size_t cols = 76, size_t rows = 24) const;

  private:
    double maxCurveValue() const;

    std::string title_;
    double xLo_;
    double xHi_;
    std::vector<RooflineCurve> curves_;
    std::vector<DropPoint> drops_;
};

} // namespace gables

#endif // GABLES_PLOT_ROOFLINE_PLOT_H
