/**
 * @file
 * Multi-series line charts (Figure 8's mixing curves, Figure 2's
 * market trends, sweep outputs) with selectable linear/log axes,
 * rendered to SVG or ASCII.
 */

#ifndef GABLES_PLOT_SERIES_PLOT_H
#define GABLES_PLOT_SERIES_PLOT_H

#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep.h"
#include "plot/axes.h"

namespace gables {

/**
 * Builder for line charts over Series data.
 */
class SeriesPlot
{
  public:
    /**
     * @param title   Chart title.
     * @param x_label X-axis label.
     * @param y_label Y-axis label.
     */
    SeriesPlot(std::string title, std::string x_label,
               std::string y_label);

    /** Select axis scales (default: both linear). */
    void setScales(Scale x_scale, Scale y_scale);

    /** Add a data series. */
    void addSeries(const Series &series);

    /** @return The SVG document. */
    std::string renderSvg(double width = 720.0,
                          double height = 480.0) const;

    /** @return An ASCII rendering. */
    std::string renderAscii(size_t cols = 76, size_t rows = 24) const;

  private:
    /** @return Whether point @p i of @p s fits the axis scales. */
    bool shown(const Series &s, size_t i) const;
    /** @return The x and y ranges that show every point. */
    std::pair<AxisRange, AxisRange> dataRange() const;

    std::string title_;
    std::string xLabel_;
    std::string yLabel_;
    Scale xScale_ = Scale::Linear;
    Scale yScale_ = Scale::Linear;
    std::vector<Series> series_;
};

} // namespace gables

#endif // GABLES_PLOT_SERIES_PLOT_H
