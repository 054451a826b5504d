#include "util/table.h"

#include <algorithm>
#include <ostream>
#include <string_view>

#include "util/logging.h"

namespace gables {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)),
      aligns_(headers_.size(), Align::Right)
{
    GABLES_ASSERT(!headers_.empty(), "table needs at least one column");
    if (!aligns_.empty())
        aligns_[0] = Align::Left;
}

void
TextTable::setAlign(size_t col, Align align)
{
    GABLES_ASSERT(col < aligns_.size(), "column index out of range");
    aligns_[col] = align;
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        fatal("table row has " + std::to_string(cells.size()) +
              " cells, expected " + std::to_string(headers_.size()));
    for (const std::string &c : cells) {
        cells_ += c;
        cellEnds_.push_back(cells_.size());
    }
    ++dataRows;
}

std::string_view
TextTable::cell(size_t row, size_t col) const
{
    size_t i = row * headers_.size() + col;
    size_t begin = i == 0 ? 0 : cellEnds_[i - 1];
    return std::string_view(cells_).substr(begin, cellEnds_[i] - begin);
}

template <class CellText>
std::string
TextTable::emit(std::ostream *out, size_t rows, const CellText &text) const
{
    const size_t cols = headers_.size();
    std::vector<size_t> widths(cols);
    for (size_t c = 0; c < cols; ++c)
        widths[c] = headers_[c].size();
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            widths[c] = std::max(widths[c], text(r, c).size());

    // Append one line: cells padded to the widths, then the newline.
    std::string buf;
    auto line = [&](auto &&cellAt) {
        for (size_t c = 0; c < cols; ++c) {
            const auto &t = cellAt(c);
            size_t pad = widths[c] - t.size();
            buf += ' ';
            if (aligns_[c] == Align::Right)
                buf.append(pad, ' ');
            buf += t;
            if (aligns_[c] == Align::Left)
                buf.append(pad, ' ');
            buf += ' ';
            if (c + 1 < cols)
                buf += '|';
        }
        buf += '\n';
    };
    auto flush = [&] {
        out->write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
    };

    // Every line, rule or row, is each column's width plus two, with
    // one separator between columns. render() reserves the whole
    // table, write() one chunk plus the line that overflows it.
    size_t lineBytes = cols;
    for (size_t w : widths)
        lineBytes += w + 2;
    const size_t total = lineBytes * (2 + rows);
    buf.reserve(out ? std::min(total, kChunkBytes + lineBytes) : total);

    line([&](size_t c) -> const std::string & { return headers_[c]; });
    for (size_t c = 0; c < cols; ++c) {
        buf.append(widths[c] + 2, '-');
        if (c + 1 < cols)
            buf += '+';
    }
    buf += '\n';
    for (size_t r = 0; r < rows; ++r) {
        line([&](size_t c) { return text(r, c); });
        if (out && buf.size() >= kChunkBytes)
            flush();
    }
    if (out)
        flush();
    return buf;
}

void
TextTable::write(std::ostream &out) const
{
    emit(&out, dataRows, [this](size_t r, size_t c) { return cell(r, c); });
}

void
TextTable::write(std::ostream &out, size_t rows, const CellFn &cell) const
{
    emit(&out, rows, cell);
}

std::string
TextTable::render() const
{
    return emit(nullptr, dataRows,
                [this](size_t r, size_t c) { return cell(r, c); });
}

} // namespace gables
