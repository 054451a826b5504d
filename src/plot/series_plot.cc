#include "plot/series_plot.h"

#include <algorithm>
#include <limits>

#include "plot/ascii.h"
#include "plot/svg.h"
#include "util/logging.h"

namespace gables {

SeriesPlot::SeriesPlot(std::string title, std::string x_label,
                       std::string y_label)
    : title_(std::move(title)), xLabel_(std::move(x_label)),
      yLabel_(std::move(y_label))
{}

void
SeriesPlot::setScales(Scale x_scale, Scale y_scale)
{
    xScale_ = x_scale;
    yScale_ = y_scale;
}

void
SeriesPlot::addSeries(const Series &series)
{
    if (series.x.size() != series.y.size())
        fatal("series '" + series.label + "' has mismatched x/y sizes");
    if (series.x.empty())
        fatal("series '" + series.label + "' is empty");
    series_.push_back(series);
}

bool
SeriesPlot::shown(const Series &s, size_t i) const
{
    // A log axis cannot show a non-positive value.
    return (xScale_ != Scale::Log || s.x[i] > 0.0) &&
           (yScale_ != Scale::Log || s.y[i] > 0.0);
}

std::pair<AxisRange, AxisRange>
SeriesPlot::dataRange() const
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    AxisRange x{xScale_, kInf, -kInf};
    AxisRange y{yScale_, kInf, -kInf};
    for (const Series &s : series_) {
        for (size_t i = 0; i < s.x.size(); ++i) {
            if (!shown(s, i))
                continue;
            x.lo = std::min(x.lo, s.x[i]);
            x.hi = std::max(x.hi, s.x[i]);
            y.lo = std::min(y.lo, s.y[i]);
            y.hi = std::max(y.hi, s.y[i]);
        }
    }
    if (!(x.hi > x.lo)) {
        x.lo -= 0.5;
        x.hi += 0.5;
    }
    if (!(y.hi > y.lo)) {
        double pad = yScale_ == Scale::Log ? 0.0 : 0.5;
        y.lo = yScale_ == Scale::Log ? y.lo / 2.0 : y.lo - pad;
        y.hi = yScale_ == Scale::Log ? y.hi * 2.0 : y.hi + pad;
    } else if (yScale_ == Scale::Log) {
        y.lo /= 1.5;
        y.hi *= 1.5;
    } else {
        double pad = (y.hi - y.lo) * 0.08;
        y.lo -= pad;
        y.hi += pad;
    }
    return {x, y};
}

std::string
SeriesPlot::renderSvg(double width, double height) const
{
    if (series_.empty())
        fatal("series plot has no data");

    auto [x, y] = dataRange();
    SvgFrame frame(width, height, title_, xLabel_, yLabel_, x, y);
    SvgCanvas &svg = frame.svg;

    for (size_t si = 0; si < series_.size(); ++si) {
        const Series &s = series_[si];
        std::vector<std::pair<double, double>> pts;
        for (size_t i = 0; i < s.x.size(); ++i) {
            if (shown(s, i))
                pts.emplace_back(frame.x.toPixel(s.x[i]),
                                 frame.y.toPixel(s.y[i]));
        }
        svg.polyline(pts, curveColor(si), 2.0);
        for (const auto &[px, py] : pts)
            svg.circle(px, py, 2.5, curveColor(si));
        // Legend entry.
        double ly = SvgFrame::kTop + 16.0 * (si + 1);
        svg.line(SvgFrame::kLeft + 8, ly, SvgFrame::kLeft + 28, ly,
                 curveColor(si), 2.0);
        svg.text(SvgFrame::kLeft + 34, ly + 4, s.label, 11,
                 TextAnchor::Start, curveColor(si));
    }
    return svg.render();
}

std::string
SeriesPlot::renderAscii(size_t cols, size_t rows) const
{
    if (series_.empty())
        fatal("series plot has no data");

    auto [x, y] = dataRange();
    AsciiFrame frame(cols, rows, title_, xLabel_, x, y,
                     Axis::formatTick(y.hi).substr(0, 8),
                     Axis::formatTick(y.lo).substr(0, 8));

    for (size_t si = 0; si < series_.size(); ++si) {
        const Series &s = series_[si];
        long prev_c = -1, prev_r = -1;
        for (size_t i = 0; i < s.x.size(); ++i) {
            if (!shown(s, i))
                continue;
            long c = frame.col(s.x[i]);
            long r = frame.row(s.y[i]);
            if (prev_c >= 0)
                frame.canvas.line(prev_c, prev_r, c, r, curveGlyph(si));
            else
                frame.canvas.put(c, r, curveGlyph(si));
            prev_c = c;
            prev_r = r;
        }
    }
    return frame.render(series_);
}

} // namespace gables
