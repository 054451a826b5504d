/**
 * @file
 * Unit constants, formatting, and parsing for rates and sizes.
 *
 * The Gables model traffics in operations per second (ops/s), bytes
 * per second (bytes/s), bytes, and operational intensity (ops/byte).
 * All quantities are stored as plain doubles in base units; this
 * header provides the decimal (SI) multipliers the paper uses
 * (Gops/s, GB/s) plus binary multipliers for memory capacities, and
 * human-readable formatting/parsing helpers.
 */

#ifndef GABLES_UTIL_UNITS_H
#define GABLES_UTIL_UNITS_H

#include <cstdint>
#include <string>

namespace gables {

/** @name Decimal (SI) multipliers — used for rates, as in the paper. */
/** @{ */
inline constexpr double kKilo = 1e3;
inline constexpr double kMega = 1e6;
inline constexpr double kGiga = 1e9;
inline constexpr double kTera = 1e12;
/** @} */

/** @name Binary multipliers — used for memory capacities. */
/** @{ */
inline constexpr double kKiB = 1024.0;
inline constexpr double kMiB = 1024.0 * 1024.0;
inline constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
/** @} */

/**
 * Format a rate in operations per second as a human string, e.g.
 * "40 Gops/s" or "3.6 Mops/s".
 *
 * @param ops_per_sec Rate in base ops/s.
 * @param precision   Significant digits after scaling (default 4).
 */
std::string formatOpsRate(double ops_per_sec, int precision = 4);

/**
 * Format a bandwidth in bytes per second, e.g. "24.4 GB/s".
 *
 * @param bytes_per_sec Rate in base bytes/s.
 * @param precision     Significant digits after scaling (default 4).
 */
std::string formatByteRate(double bytes_per_sec, int precision = 4);

/**
 * Format a byte count with binary prefixes, e.g. "12 MiB". Sub-unit
 * magnitudes clamp at the base unit ("0.5 B"), since milli-bytes are
 * not a thing.
 *
 * @param bytes     Size in bytes.
 * @param precision Significant digits after scaling (default 4).
 */
std::string formatBytes(double bytes, int precision = 4);

/**
 * Parse a rate string such as "40 Gops/s", "24.4GB/s", "3e9", or
 * "920 MHz" (interpreted as events/s) into base units per second.
 *
 * Recognized decimal prefixes: k, K, M, G, T, plus the sub-unit
 * prefixes m, u, n, p that formatOpsRate() emits. Binary prefixes
 * (Ki/Mi/Gi, prefix letter case-insensitive, 'i' case-sensitive)
 * are 1024-based, as in "25.6 GiB/s". The unit suffix
 * after the prefix is ignored apart from validation that it is one of
 * ops/s, flops/s, B/s, bytes/s, Hz, or empty.
 *
 * @param text Input text.
 * @return Value in base units per second.
 * @throws FatalError if the text cannot be parsed.
 */
double parseRate(const std::string &text);

} // namespace gables

#endif // GABLES_UTIL_UNITS_H
