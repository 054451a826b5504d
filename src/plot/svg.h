/**
 * @file
 * A minimal SVG drawing backend: primitives with inline styling,
 * accumulated into a standalone SVG document. Enough to render the
 * paper's roofline and series figures without external dependencies.
 */

#ifndef GABLES_PLOT_SVG_H
#define GABLES_PLOT_SVG_H

#include <sstream>
#include <string>
#include <vector>

#include "plot/axes.h"

namespace gables {

/** Text anchor positions, matching the SVG attribute. */
enum class TextAnchor { Start, Middle, End };

/**
 * An SVG document builder. Coordinates are in pixels with the origin
 * at the top-left (standard SVG convention); plot classes handle the
 * y-flip from data space.
 */
class SvgCanvas
{
  public:
    /**
     * @param width  Document width in pixels.
     * @param height Document height in pixels.
     */
    SvgCanvas(double width, double height);

    /** Draw a line segment. */
    void line(double x1, double y1, double x2, double y2,
              const std::string &stroke = "#222222",
              double stroke_width = 1.0, bool dashed = false);

    /** Draw a polyline through the given points. */
    void polyline(const std::vector<std::pair<double, double>> &points,
                  const std::string &stroke = "#222222",
                  double stroke_width = 1.5, bool dashed = false);

    /** Draw an axis-aligned rectangle (outline + optional fill). */
    void rect(double x, double y, double w, double h,
              const std::string &stroke = "#222222",
              const std::string &fill = "none");

    /** Draw a filled circle. */
    void circle(double cx, double cy, double r,
                const std::string &fill = "#222222");

    /**
     * Draw text.
     *
     * @param rotate Degrees of rotation about the text origin (e.g.
     *               -90 for a vertical y-axis label).
     */
    void text(double x, double y, const std::string &content,
              double size = 12.0, TextAnchor anchor = TextAnchor::Start,
              const std::string &fill = "#222222", double rotate = 0.0);

    /** @return The complete SVG document. */
    std::string render() const;

  private:
    static std::string escape(const std::string &s);

    double width_;
    double height_;
    std::ostringstream body_;
};

/** @return The colour of curve @p i in an SVG chart. */
const char *curveColor(size_t i);

/**
 * The frame of an SVG line chart (RooflinePlot, SeriesPlot), drawn
 * when it is built: the plot box inside the margins, the ticks and
 * tick labels of both axes, the axis titles and the chart title. The
 * chart draws its curves on svg through x and y.
 */
struct SvgFrame {
    /** Margins (pixels) around the plot box. */
    static constexpr double kLeft = 70.0, kRight = 20.0, kTop = 40.0,
                            kBottom = 50.0;

    /** @param y_unit Y tick labels read value / y_unit (1e9 labels
     * ops/s in Gops/s). */
    SvgFrame(double width, double height, const std::string &title,
             const std::string &x_label, const std::string &y_label,
             AxisRange x_range, AxisRange y_range, double y_unit = 1.0);

    SvgCanvas svg;
    Axis x;
    Axis y;
};

} // namespace gables

#endif // GABLES_PLOT_SVG_H
