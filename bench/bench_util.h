/**
 * @file
 * Shared helpers for the benchmark/reproduction binaries: a
 * paper-vs-measured comparison table and standard headers. Each
 * bench binary prints its reproduction tables first, then runs any
 * registered google-benchmark timings.
 */

#ifndef GABLES_BENCH_BENCH_UTIL_H
#define GABLES_BENCH_BENCH_UTIL_H

#include <cstdlib>
#include <iostream>
#include <string>

#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/table.h"

namespace gables {
namespace bench {

/** Print a banner naming the experiment being regenerated. */
inline void
banner(const std::string &experiment, const std::string &what)
{
    std::cout << "\n=== " << experiment << ": " << what << " ===\n";
}

/**
 * Write figure @p svg to @p path atomically, then print "wrote
 * <path>". A write that fails prints its reason (naming the path) on
 * stderr and exits 1, so an unwritten figure never reads as written.
 */
inline void
writeFigure(const std::string &path, const std::string &svg)
{
    try {
        writeFileAtomic(path, svg);
    } catch (const FatalError &err) {
        std::cerr << "error: " << err.what() << '\n';
        std::exit(1);
    }
    std::cout << "wrote " << path << '\n';
}

/**
 * A paper-vs-measured table: rows carry the quantity, the paper's
 * value, our value, and the relative error.
 */
class ComparisonTable
{
  public:
    ComparisonTable()
        : table_({"quantity", "paper", "ours", "rel.err"})
    {
        table_.setAlign(0, TextTable::Align::Left);
    }

    /** Add one comparison row; values are formatted by the caller. */
    void
    add(const std::string &quantity, double paper, double ours,
        const std::string &unit, int precision = 4)
    {
        double err = paper != 0.0 ? (ours - paper) / paper : 0.0;
        table_.addRow({quantity,
                       formatDouble(paper, precision) + " " + unit,
                       formatDouble(ours, precision) + " " + unit,
                       formatDouble(err * 100.0, 2) + "%"});
    }

    /** Print the table to stdout. */
    void
    print() const
    {
        std::cout << table_.render();
    }

  private:
    TextTable table_;
};

} // namespace bench
} // namespace gables

#endif // GABLES_BENCH_BENCH_UTIL_H
