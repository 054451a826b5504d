#include "plot/svg.h"

#include <iterator>

#include "util/logging.h"

namespace gables {

SvgCanvas::SvgCanvas(double width, double height)
    : width_(width), height_(height)
{
    if (!(width > 0.0) || !(height > 0.0))
        fatal("SVG canvas dimensions must be positive");
}

std::string
SvgCanvas::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out += c;
        }
    }
    return out;
}

void
SvgCanvas::line(double x1, double y1, double x2, double y2,
                const std::string &stroke, double stroke_width,
                bool dashed)
{
    body_ << "<line x1=\"" << x1 << "\" y1=\"" << y1 << "\" x2=\"" << x2
          << "\" y2=\"" << y2 << "\" stroke=\"" << stroke
          << "\" stroke-width=\"" << stroke_width << "\"";
    if (dashed)
        body_ << " stroke-dasharray=\"5,4\"";
    body_ << "/>\n";
}

void
SvgCanvas::polyline(const std::vector<std::pair<double, double>> &points,
                    const std::string &stroke, double stroke_width,
                    bool dashed)
{
    if (points.size() < 2)
        return;
    body_ << "<polyline fill=\"none\" stroke=\"" << stroke
          << "\" stroke-width=\"" << stroke_width << "\"";
    if (dashed)
        body_ << " stroke-dasharray=\"5,4\"";
    body_ << " points=\"";
    for (const auto &[x, y] : points)
        body_ << x << ',' << y << ' ';
    body_ << "\"/>\n";
}

void
SvgCanvas::rect(double x, double y, double w, double h,
                const std::string &stroke, const std::string &fill)
{
    body_ << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\"" << w
          << "\" height=\"" << h << "\" stroke=\"" << stroke
          << "\" fill=\"" << fill << "\"/>\n";
}

void
SvgCanvas::circle(double cx, double cy, double r, const std::string &fill)
{
    body_ << "<circle cx=\"" << cx << "\" cy=\"" << cy << "\" r=\"" << r
          << "\" fill=\"" << fill << "\"/>\n";
}

void
SvgCanvas::text(double x, double y, const std::string &content,
                double size, TextAnchor anchor, const std::string &fill,
                double rotate)
{
    const char *anchor_name = "start";
    if (anchor == TextAnchor::Middle)
        anchor_name = "middle";
    else if (anchor == TextAnchor::End)
        anchor_name = "end";
    body_ << "<text x=\"" << x << "\" y=\"" << y << "\" font-size=\""
          << size << "\" font-family=\"sans-serif\" text-anchor=\""
          << anchor_name << "\" fill=\"" << fill << "\"";
    if (rotate != 0.0)
        body_ << " transform=\"rotate(" << rotate << ' ' << x << ' ' << y
              << ")\"";
    body_ << '>' << escape(content) << "</text>\n";
}

std::string
SvgCanvas::render() const
{
    std::ostringstream oss;
    oss << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
        << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width_
        << "\" height=\"" << height_ << "\" viewBox=\"0 0 " << width_
        << ' ' << height_ << "\">\n"
        << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
        << body_.str() << "</svg>\n";
    return oss.str();
}

const char *
curveColor(size_t i)
{
    static const char *const kPalette[] = {
        "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
        "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
    };
    return kPalette[i % std::size(kPalette)];
}

SvgFrame::SvgFrame(double width, double height, const std::string &title,
                   const std::string &x_label, const std::string &y_label,
                   AxisRange x_range, AxisRange y_range, double y_unit)
    : svg(width, height),
      x(x_range.scale, x_range.lo, x_range.hi, kLeft, width - kRight),
      y(y_range.scale, y_range.lo, y_range.hi, height - kBottom, kTop)
{
    svg.rect(kLeft, kTop, width - kLeft - kRight, height - kTop - kBottom,
             "#888888");
    for (double t : x.ticks()) {
        double px = x.toPixel(t);
        svg.line(px, height - kBottom, px, height - kBottom + 4, "#888888");
        svg.text(px, height - kBottom + 18, Axis::formatTick(t), 11,
                 TextAnchor::Middle);
    }
    for (double t : y.ticks()) {
        double py = y.toPixel(t);
        svg.line(kLeft - 4, py, kLeft, py, "#888888");
        svg.text(kLeft - 8, py + 4, Axis::formatTick(t / y_unit), 11,
                 TextAnchor::End);
    }
    svg.text(width / 2, height - 12, x_label, 12, TextAnchor::Middle);
    svg.text(18, height / 2, y_label, 12, TextAnchor::Middle, "#222222",
             -90.0);
    svg.text(width / 2, 22, title, 14, TextAnchor::Middle);
}

} // namespace gables
