#include "plot/ascii.h"

#include <cstdlib>
#include <iterator>

#include "util/logging.h"

namespace gables {

AsciiCanvas::AsciiCanvas(size_t cols, size_t rows)
    : cols_(cols), rows_(rows),
      grid_(rows, std::string(cols, ' '))
{
    if (cols == 0 || rows == 0)
        fatal("ASCII canvas dimensions must be positive");
}

void
AsciiCanvas::put(long col, long row, char c)
{
    if (col < 0 || row < 0 || col >= static_cast<long>(cols_) ||
        row >= static_cast<long>(rows_))
        return;
    grid_[static_cast<size_t>(row)][static_cast<size_t>(col)] = c;
}

void
AsciiCanvas::write(long col, long row, const std::string &s)
{
    for (size_t i = 0; i < s.size(); ++i)
        put(col + static_cast<long>(i), row, s[i]);
}

void
AsciiCanvas::line(long c1, long r1, long c2, long r2, char c)
{
    long dc = std::labs(c2 - c1);
    long dr = -std::labs(r2 - r1);
    long sc = c1 < c2 ? 1 : -1;
    long sr = r1 < r2 ? 1 : -1;
    long err = dc + dr;
    while (true) {
        put(c1, r1, c);
        if (c1 == c2 && r1 == r2)
            break;
        long e2 = 2 * err;
        if (e2 >= dr) {
            err += dr;
            c1 += sc;
        }
        if (e2 <= dc) {
            err += dc;
            r1 += sr;
        }
    }
}

std::string
AsciiCanvas::render() const
{
    std::string out;
    out.reserve((cols_ + 1) * rows_);
    for (const std::string &row : grid_) {
        out += row;
        out += '\n';
    }
    return out;
}

// Chart frame margins (cells): the y axis's column, the rows from the
// x axis down, and the title row.
constexpr long kLeft = 9, kBottom = 2, kTop = 1;

char
curveGlyph(size_t i)
{
    static const char kGlyphs[] = {'*', 'o', '#', '%', '@', '+', 'x', '='};
    return kGlyphs[i % std::size(kGlyphs)];
}

AsciiFrame::AsciiFrame(size_t cols, size_t rows, const std::string &title,
                       const std::string &x_label, AxisRange x_range,
                       AxisRange y_range, const std::string &y_hi_label,
                       const std::string &y_lo_label)
    : canvas(cols, rows),
      x(x_range.scale, x_range.lo, x_range.hi, kLeft + 1,
        static_cast<double>(cols) - 2),
      y(y_range.scale, y_range.lo, y_range.hi,
        static_cast<double>(rows) - kBottom - 1, kTop)
{
    const long axis = static_cast<long>(rows) - kBottom;
    for (long r = kTop; r < axis; ++r)
        canvas.put(kLeft, r, '|');
    for (long c = kLeft; c < static_cast<long>(cols) - 1; ++c)
        canvas.put(c, axis, '-');
    canvas.put(kLeft, axis, '+');
    canvas.write(0, 0, title.substr(0, cols));
    canvas.write(0, kTop, y_hi_label);
    canvas.write(0, axis - 1, y_lo_label);
    canvas.write(kLeft, static_cast<long>(rows) - 1,
                 Axis::formatTick(x_range.lo) + " .. " + x_label + " .. " +
                     Axis::formatTick(x_range.hi));
}

} // namespace gables
