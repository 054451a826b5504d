#include "plot/roofline_plot.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "plot/ascii.h"
#include "plot/svg.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/strings.h"
#include "util/units.h"

namespace gables {

GablesCurves
gablesCurves(const SocSpec &soc, const Usecase &usecase)
{
    checkPair(soc, usecase);
    GablesCurves family;
    for (size_t i = 0; i < soc.numIps(); ++i) {
        const double f = usecase.fraction(i);
        if (f == 0.0)
            continue; // unused IPs are omitted, as in the paper
        const RooflineCurve &curve = family.curves.emplace_back(RooflineCurve{
            soc.ipLabel(i) + " (f=" + formatDouble(f, 3) + ")",
            soc.ip(i).bandwidth, soc.ipPeakPerf(i), f,
            static_cast<int>(i)});
        const double x = usecase.intensity(i);
        if (!std::isinf(x))
            family.drops.push_back(
                DropPoint{x, curve.at(x), "I" + std::to_string(i)});
    }
    family.curves.push_back(RooflineCurve{
        "memory", soc.bpeak(), std::numeric_limits<double>::infinity()});
    const double iavg = usecase.averageIntensity();
    if (!std::isinf(iavg))
        family.drops.push_back(DropPoint{iavg, soc.bpeak() * iavg, "Iavg"});
    return family;
}

RooflinePlot::RooflinePlot(std::string title, double x_lo, double x_hi)
    : title_(std::move(title)), xLo_(x_lo), xHi_(x_hi)
{
    if (!(x_lo > 0.0) || !(x_hi > x_lo))
        fatal("roofline plot needs 0 < x_lo < x_hi");
}

void
RooflinePlot::addRoofline(const Roofline &roofline)
{
    curves_.push_back(RooflineCurve{roofline.name(), roofline.peakBw(),
                                    roofline.peakPerf()});
}

void
RooflinePlot::addGables(const SocSpec &soc, const Usecase &usecase)
{
    GablesCurves family = gablesCurves(soc, usecase);
    curves_.insert(curves_.end(), family.curves.begin(),
                   family.curves.end());
    drops_.insert(drops_.end(), family.drops.begin(), family.drops.end());
}

double
RooflinePlot::maxCurveValue() const
{
    double top = 0.0;
    for (const RooflineCurve &c : curves_)
        top = std::max(top, c.at(xHi_));
    for (const DropPoint &d : drops_)
        top = std::max(top, d.y);
    return top;
}

std::string
RooflinePlot::renderSvg(double width, double height) const
{
    if (curves_.empty())
        fatal("roofline plot has no curves");

    double y_hi = maxCurveValue() * 2.0;
    double y_lo = y_hi / 1e6;
    // Keep the lowest visible curve point on screen.
    for (const RooflineCurve &c : curves_)
        y_lo = std::min(y_lo, c.at(xLo_) / 2.0);
    if (!(y_lo > 0.0))
        y_lo = y_hi / 1e9;

    SvgFrame frame(width, height, title_, "operational intensity (ops/byte)",
                   "attainable Gops/s", {Scale::Log, xLo_, xHi_},
                   {Scale::Log, y_lo, y_hi}, kGiga);
    SvgCanvas &svg = frame.svg;

    // Curves: sample densely in log space to keep the knee sharp.
    for (size_t ci = 0; ci < curves_.size(); ++ci) {
        const RooflineCurve &c = curves_[ci];
        std::vector<std::pair<double, double>> pts;
        for (double x : logspace(xLo_, xHi_, 128))
            pts.emplace_back(frame.x.toPixel(x), frame.y.toPixel(c.at(x)));
        bool dashed = std::isinf(c.flat); // memory roofline
        svg.polyline(pts, curveColor(ci), 2.0, dashed);
        // Label near the right end of the curve.
        double label_y = frame.y.toPixel(c.at(xHi_));
        svg.text(width - SvgFrame::kRight - 4, label_y - 5, c.label, 11,
                 TextAnchor::End, curveColor(ci));
    }

    // Drop lines and markers.
    for (const DropPoint &d : drops_) {
        double px = frame.x.toPixel(d.x);
        double py = frame.y.toPixel(d.y);
        svg.line(px, frame.y.toPixel(y_lo), px, py, "#555555", 1.0, true);
        svg.circle(px, py, 3.5, "#000000");
        svg.text(px + 4, py - 6, d.label, 10);
    }
    return svg.render();
}

std::string
RooflinePlot::renderAscii(size_t cols, size_t rows) const
{
    if (curves_.empty())
        fatal("roofline plot has no curves");

    double y_hi = maxCurveValue() * 2.0;
    double y_lo = y_hi;
    for (const RooflineCurve &c : curves_)
        y_lo = std::min(y_lo, c.at(xLo_));
    y_lo = std::max(y_lo / 2.0, y_hi / 1e9);

    // Y range labels in Gops/s.
    AsciiFrame frame(cols, rows, title_, "I (ops/B)",
                     {Scale::Log, xLo_, xHi_}, {Scale::Log, y_lo, y_hi},
                     padLeft(Axis::formatTick(y_hi / kGiga), 8),
                     padLeft(Axis::formatTick(y_lo / kGiga), 8));
    AsciiCanvas &canvas = frame.canvas;

    for (size_t ci = 0; ci < curves_.size(); ++ci) {
        for (double x : logspace(xLo_, xHi_, cols * 2)) {
            double y = curves_[ci].at(x);
            if (y < y_lo || y > y_hi)
                continue;
            canvas.put(frame.col(x), frame.row(y), curveGlyph(ci));
        }
    }

    // Drop markers.
    for (const DropPoint &d : drops_) {
        long px = frame.col(d.x);
        long py = frame.row(d.y);
        for (long r = py + 1; r <= frame.row(y_lo); ++r)
            canvas.put(px, r, ':');
        canvas.put(px, py, 'V');
    }
    return frame.render(curves_);
}

} // namespace gables
