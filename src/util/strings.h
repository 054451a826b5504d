/**
 * @file
 * Small string helpers shared across the library.
 */

#ifndef GABLES_UTIL_STRINGS_H
#define GABLES_UTIL_STRINGS_H

#include <string>
#include <vector>

namespace gables {

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &s);

/** Lower-case an ASCII string. */
std::string toLower(const std::string &s);

/**
 * Split a string on a delimiter character; empty fields are kept.
 *
 * @param s     Input string.
 * @param delim Delimiter character.
 */
std::vector<std::string> split(const std::string &s, char delim);

/** Join strings with a separator. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** True if @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** The largest precision formatDouble() accepts. */
inline constexpr int kFormatDoubleMaxPrecision = 64;

/**
 * Format a double compactly: fixed notation, trailing zeros trimmed.
 * Locale-independent: the digits are printf("%.*f") in the C locale;
 * NaN and the infinities read "nan", "inf" and "-inf".
 *
 * @param value     Value to format.
 * @param precision Maximum digits after the decimal point, at most
 *                  kFormatDoubleMaxPrecision (negative means 6).
 * @throws FatalError if @p precision exceeds the maximum.
 */
std::string formatDouble(double value, int precision = 6);

/** Left-pad @p s with spaces to width @p width. */
std::string padLeft(const std::string &s, size_t width);

/** Right-pad @p s with spaces to width @p width. */
std::string padRight(const std::string &s, size_t width);

} // namespace gables

#endif // GABLES_UTIL_STRINGS_H
