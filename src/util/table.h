/**
 * @file
 * Plain-text table formatter used by benches and the CLI to print
 * paper-style tables (e.g. Table I, the appendix walkthrough, and
 * paper-vs-measured comparison rows).
 */

#ifndef GABLES_UTIL_TABLE_H
#define GABLES_UTIL_TABLE_H

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace gables {

/**
 * A simple column-aligned text table.
 *
 * Usage:
 * @code
 *   TextTable t({"IP", "f", "I", "1/T"});
 *   t.addRow({"CPU", "0.25", "8", "160"});
 *   t.write(std::cout);
 * @endcode
 *
 * The writer makes two passes over the cells: one for the column
 * widths, one to pad each row into a buffer that goes to the stream
 * every kChunkBytes. A table too large to store (the 1M-row sweep)
 * passes its cells as a function instead of adding rows, so no cell
 * outlives its line.
 */
class TextTable
{
  public:
    /** Column alignment. */
    enum class Align { Left, Right };

    /** Buffered bytes that trigger a write to the stream. */
    static constexpr size_t kChunkBytes = 64 * 1024;

    /** The text of data row @p row, column @p col. */
    using CellFn = std::function<std::string(size_t row, size_t col)>;

    /** Construct with header labels; column count is fixed by them. */
    explicit TextTable(std::vector<std::string> headers);

    /** Set the alignment of column @p col (default Right). */
    void setAlign(size_t col, Align align);

    /**
     * Append a data row; must have exactly as many cells as there are
     * headers.
     */
    void addRow(std::vector<std::string> cells);

    /** @return Number of data rows added so far. */
    size_t rowCount() const { return dataRows; }

    /**
     * Write the table to @p out: the header, a separator rule, then
     * the rows, one trailing newline included.
     */
    void write(std::ostream &out) const;

    /**
     * Write a table of @p rows data rows whose cells come from
     * @p cell, under this table's headers and alignments (rows added
     * with addRow() are not written). @p cell is called twice per
     * cell, once for the widths and once to write, and must give the
     * same text both times.
     */
    void write(std::ostream &out, size_t rows, const CellFn &cell) const;

    /** @return The bytes write(std::ostream &) writes. */
    std::string render() const;

  private:
    /** @return Column @p col of stored data row @p row. */
    std::string_view cell(size_t row, size_t col) const;

    /**
     * The one writer: widths from @p text, then the padded lines,
     * handed to @p out every kChunkBytes and at the end.
     * @return The whole table when @p out is null, else "".
     */
    template <class CellText>
    std::string emit(std::ostream *out, size_t rows,
                     const CellText &text) const;

    std::vector<std::string> headers_;
    std::vector<Align> aligns_;
    // Every data cell's bytes back to back, row-major, and the end
    // offset of each cell in that arena.
    std::string cells_;
    std::vector<size_t> cellEnds_;
    size_t dataRows = 0;
};

} // namespace gables

#endif // GABLES_UTIL_TABLE_H
