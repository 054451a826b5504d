#include "util/table.h"

#include <algorithm>
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
    for (const std::string &h : headers_)
        widths_.push_back(h.size());
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
    for (size_t c = 0; c < cells.size(); ++c) {
        cells_ += cells[c];
        cellEnds_.push_back(cells_.size());
        widths_[c] = std::max(widths_[c], cells[c].size());
    }
    ++dataRows;
}

std::string_view
TextTable::cell(size_t row, size_t col) const
{
    if (row == kHeaderRow)
        return headers_[col];
    size_t i = row * headers_.size() + col;
    size_t begin = i == 0 ? 0 : cellEnds_[i - 1];
    return std::string_view(cells_).substr(begin, cellEnds_[i] - begin);
}

void
TextTable::appendRow(std::string &out, size_t row) const
{
    for (size_t c = 0; c < widths_.size(); ++c) {
        std::string_view text = cell(row, c);
        size_t pad = widths_[c] - text.size();
        out += ' ';
        if (aligns_[c] == Align::Right)
            out.append(pad, ' ');
        out += text;
        if (aligns_[c] == Align::Left)
            out.append(pad, ' ');
        out += ' ';
        if (c + 1 < widths_.size())
            out += '|';
    }
    out += '\n';
}

std::string
TextTable::render() const
{
    // The rule is exactly as long as a row: each column is its width
    // plus two, with one separator between columns.
    size_t line = widths_.size();
    for (size_t w : widths_)
        line += w + 2;
    std::string out;
    out.reserve(line * (2 + dataRows));

    appendRow(out, kHeaderRow);
    for (size_t c = 0; c < widths_.size(); ++c) {
        out.append(widths_[c] + 2, '-');
        if (c + 1 < widths_.size())
            out += '+';
    }
    out += '\n';
    for (size_t r = 0; r < dataRows; ++r)
        appendRow(out, r);
    return out;
}

} // namespace gables
