/**
 * @file
 * Plain-text table formatter used by benches and the CLI to print
 * paper-style tables (e.g. Table I, the appendix walkthrough, and
 * paper-vs-measured comparison rows).
 */

#ifndef GABLES_UTIL_TABLE_H
#define GABLES_UTIL_TABLE_H

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
 *   std::cout << t.render();
 * @endcode
 */
class TextTable
{
  public:
    /** Column alignment. */
    enum class Align { Left, Right };

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
     * Render the table to a string: the header, a separator rule,
     * then the rows, one trailing newline included.
     */
    std::string render() const;

  private:
    /** The row index that names the header row in cell(). */
    static constexpr size_t kHeaderRow = static_cast<size_t>(-1);

    /** @return Column @p col of data row @p row (or the header). */
    std::string_view cell(size_t row, size_t col) const;
    /** Append row @p row (or the header), padded to the widths. */
    void appendRow(std::string &out, size_t row) const;

    std::vector<std::string> headers_;
    std::vector<Align> aligns_;
    // Widest cell per column, headers included; kept by addRow().
    std::vector<size_t> widths_;
    // Every data cell's bytes back to back, row-major, and the end
    // offset of each cell in that arena.
    std::string cells_;
    std::vector<size_t> cellEnds_;
    size_t dataRows = 0;
};

} // namespace gables

#endif // GABLES_UTIL_TABLE_H
