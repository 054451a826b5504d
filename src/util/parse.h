/**
 * @file
 * Strict input parsing and diagnostics for every Gables input path.
 *
 * Gables results are only as trustworthy as the Ppeak/Bi/fi@Ii numbers
 * fed in, so nothing that reads user input may silently accept
 * garbage. This header is the single home of numeric text parsing:
 * full-token parsers that reject trailing garbage and out-of-range
 * values, ranged/sign-checked variants, a ConfigError diagnostic type
 * carrying a source location (file:line), and did-you-mean suggestion
 * helpers for unknown keys. The null-end-pointer strtod/strtol idiom
 * is banned outside src/util/parse.cc (CI greps for it).
 *
 * All floating-point scanning goes through std::from_chars, so the
 * parsers are locale-independent: "1.5" means 1.5 even when the host
 * process runs under LC_NUMERIC=de_DE, and "1,5" is always rejected.
 * Strict parsing accepts plain decimal notation only — hex floats
 * ("0x1p3") and the textual "inf"/"nan" family are errors.
 */

#ifndef GABLES_UTIL_PARSE_H
#define GABLES_UTIL_PARSE_H

#include <optional>
#include <string>
#include <vector>

#include "util/logging.h"

namespace gables {

/**
 * Where a diagnostic points: a file (or pseudo-file such as "config"
 * for in-memory documents) and a 1-based line number. Formats in the
 * conventional compiler style "file:line".
 */
struct SourceLoc {
    /** File path or input name; empty when unknown. */
    std::string file;
    /** 1-based line number; 0 when unknown. */
    int line = 0;

    /** @return "file:line", "file", or "" as components are known. */
    std::string str() const;
};

/**
 * A user-input error with a source location, thrown by the config
 * parser and the `gables validate` linter. Derives from FatalError so
 * every existing catch site keeps working; what() is the full
 * "file:line: message" diagnostic.
 */
class ConfigError : public FatalError
{
  public:
    ConfigError(SourceLoc loc, const std::string &msg);

    /** @return The source location the diagnostic points at. */
    const SourceLoc &where() const { return loc_; }

    /** @return The message without the location prefix. */
    const std::string &message() const { return msg_; }

  private:
    SourceLoc loc_;
    std::string msg_;
};

/**
 * Abort on a located user-input error by throwing ConfigError. Like
 * fatal(), it writes nothing: the handler that catches it reports it.
 */
[[noreturn]] void configError(const SourceLoc &loc,
                              const std::string &msg);

/**
 * Locale-independent decimal-double scan via std::from_chars, with
 * the two strtod conveniences the callers relied on: an optional
 * leading '+' and (for the strict parser) surrounding whitespace.
 * Unlike strtod this never honors LC_NUMERIC — "1.5" parses as 1.5
 * even under de_DE, and "1,5" is a comma, not a decimal point. The
 * strict parsers and the JSON reader scan every number with it.
 *
 * @return One past the last consumed character, or @p begin when no
 *         number could be parsed. Overflow/underflow reports through
 *         @p out_of_range with the value left at +-inf / 0.
 */
const char *scanDouble(const char *begin, const char *end, double *value,
                       bool *out_of_range);

/**
 * Parse a full-token floating-point number: the entire (trimmed) text
 * must be consumed and the value must be a finite decimal — hex
 * floats and "inf"/"nan" tokens are rejected.
 *
 * @param text Input text, e.g. "0.75" or "3e9".
 * @param what Noun for error messages, e.g. "fraction".
 * @throws FatalError on empty input, trailing garbage, non-finite
 *         or hex notation, or overflow.
 */
double parseDoubleStrict(const std::string &text,
                         const std::string &what = "number");

/**
 * Parse a full-token base-10 integer.
 *
 * @param text Input text, e.g. "42" or "-7".
 * @param what Noun for error messages, e.g. "worker count".
 * @throws FatalError on empty input, trailing garbage (including a
 *         fractional part), or values outside long's range.
 */
long parseIntStrict(const std::string &text,
                    const std::string &what = "integer");

/**
 * parseIntStrict plus an inclusive range check.
 * @throws FatalError when the value lies outside [lo, hi].
 */
long parseIntInRange(const std::string &text, long lo, long hi,
                     const std::string &what = "integer");

/**
 * Consume the leading number of a composite token such as "24.4GB/s".
 *
 * This is the one sanctioned entry point for prefix (non-full-token)
 * numeric parsing; everything else goes through the strict parsers.
 *
 * @param text  Input text.
 * @param value Receives the parsed number on success.
 * @param rest  Receives the unconsumed remainder (untrimmed).
 * @return False when @p text does not start with a number.
 */
bool parseDoublePrefix(const std::string &text, double *value,
                       std::string *rest);

/**
 * Levenshtein edit distance between two strings (case-sensitive;
 * lower-case both sides for fuzzy key matching).
 */
size_t editDistance(const std::string &a, const std::string &b);

/**
 * The candidate closest to @p word by case-insensitive edit distance,
 * if any is close enough to plausibly be a typo (distance <= 1 for
 * short words, <= 2 otherwise, and always < the word's length).
 */
std::optional<std::string>
closestMatch(const std::string &word,
             const std::vector<std::string> &candidates);

/**
 * Render a did-you-mean suffix for an unknown-key diagnostic.
 *
 * @return " (did you mean 'X'?)" for the closest candidate, or ""
 *         when nothing is close enough.
 */
std::string didYouMean(const std::string &word,
                       const std::vector<std::string> &candidates);

} // namespace gables

#endif // GABLES_UTIL_PARSE_H
