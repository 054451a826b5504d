/**
 * @file
 * ASCII-art plotting backend for terminal output — the CLI's quick
 * look at rooflines and sweeps without leaving the shell.
 */

#ifndef GABLES_PLOT_ASCII_H
#define GABLES_PLOT_ASCII_H

#include <cmath>
#include <string>
#include <vector>

#include "plot/axes.h"

namespace gables {

/**
 * A character-cell canvas with (0,0) at the top-left.
 */
class AsciiCanvas
{
  public:
    /**
     * @param cols Canvas width in characters.
     * @param rows Canvas height in characters.
     */
    AsciiCanvas(size_t cols, size_t rows);

    /** Set one cell; out-of-range coordinates are ignored. */
    void put(long col, long row, char c);

    /** Write a string starting at (col, row), clipped to the canvas. */
    void write(long col, long row, const std::string &s);

    /**
     * Draw a line from (c1, r1) to (c2, r2) with Bresenham's
     * algorithm using character @p c.
     */
    void line(long c1, long r1, long c2, long r2, char c);

    /** @return The canvas as newline-joined rows. */
    std::string render() const;

  private:
    size_t cols_;
    size_t rows_;
    std::vector<std::string> grid_;
};

/** @return The glyph of curve @p i in an ASCII chart. */
char curveGlyph(size_t i);

/**
 * The frame of an ASCII line chart (RooflinePlot, SeriesPlot), drawn
 * when it is built: the axes, the title, the y range labels left of
 * the y axis and the x range line under the x axis. render() adds
 * the legend.
 */
struct AsciiFrame {
    /** @param y_hi_label, y_lo_label Labels of the y axis's top and
     * bottom, at most 8 columns. */
    AsciiFrame(size_t cols, size_t rows, const std::string &title,
               const std::string &x_label, AxisRange x_range,
               AxisRange y_range, const std::string &y_hi_label,
               const std::string &y_lo_label);

    /** @return The cell column of data value @p v. */
    long col(double v) const { return std::lround(x.toPixel(v)); }
    /** @return The cell row of data value @p v. */
    long row(double v) const { return std::lround(y.toPixel(v)); }

    /** @return The canvas, then the glyph and label of each of
     * @p curves (anything with a label). */
    template <typename Curve>
    std::string
    render(const std::vector<Curve> &curves) const
    {
        std::string out = canvas.render();
        for (size_t i = 0; i < curves.size(); ++i)
            out += std::string("  ") + curveGlyph(i) + " " +
                   curves[i].label + "\n";
        return out;
    }

    AsciiCanvas canvas;
    Axis x;
    Axis y;
};

} // namespace gables

#endif // GABLES_PLOT_ASCII_H
