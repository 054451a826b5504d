/**
 * @file
 * Numeric helpers used throughout the model and analysis code:
 * log-scale grids and ticks, clamping, and a radix sort for
 * non-negative doubles.
 */

#ifndef GABLES_UTIL_MATH_UTIL_H
#define GABLES_UTIL_MATH_UTIL_H

#include <cstddef>
#include <vector>

namespace gables {

/**
 * Generate logarithmically spaced points from @p lo to @p hi
 * inclusive.
 *
 * @param lo    Positive lower bound.
 * @param hi    Positive upper bound, > lo.
 * @param count Number of points (>= 2).
 */
std::vector<double> logspace(double lo, double hi, size_t count);

/**
 * Powers-of-ten tick positions covering [lo, hi] for log axes.
 * Returns 10^k for every integer k with 10^k within (or bracketing)
 * the range.
 */
std::vector<double> logTicks(double lo, double hi);

/** Clamp @p v into [lo, hi]. */
double clamp(double v, double lo, double hi);

/**
 * Sort @p values ascending into exactly std::sort's sequence, with an
 * LSD radix sort (five 13-bit digits) on the IEEE-754 bit patterns.
 * For values with the sign bit clear that are not NaN (+0.0 through
 * +inf, subnormals included), bit order is value order and equal
 * values have equal bits, so the result is the same sequence of bit
 * patterns std::sort yields. A pass whose digit is the same for
 * every value is skipped.
 *
 * Costs one transient uint64_t scratch buffer of values.size()
 * entries (8 bytes per value) plus a 320 KiB digit histogram.
 *
 * @throws FatalError if any value is NaN or has its sign bit set
 *         (negative values and -0.0).
 */
void sortNonNegative(std::vector<double> &values);

} // namespace gables

#endif // GABLES_UTIL_MATH_UTIL_H
