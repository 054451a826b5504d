#include "util/parse.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "util/strings.h"

namespace gables {

std::string
SourceLoc::str() const
{
    if (file.empty())
        return line > 0 ? "line " + std::to_string(line) : "";
    if (line <= 0)
        return file;
    return file + ":" + std::to_string(line);
}

ConfigError::ConfigError(SourceLoc loc, const std::string &msg)
    : FatalError(loc.str().empty() ? msg : loc.str() + ": " + msg),
      loc_(std::move(loc)), msg_(msg)
{
}

void
configError(const SourceLoc &loc, const std::string &msg)
{
    throw ConfigError(loc, msg);
}

namespace {

/** Shared full-token scaffolding for the strict numeric parsers. */
[[noreturn]] void
badToken(const std::string &what, const std::string &text,
         const std::string &why)
{
    fatal("cannot parse " + what + " '" + text + "': " + why);
}

/** @return True when the token spells a hex-float ("0x1p3"). */
bool
looksHex(const char *begin, const char *end)
{
    const char *p = begin;
    if (p != end && (*p == '+' || *p == '-'))
        ++p;
    return end - p >= 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X');
}

} // namespace

const char *
scanDouble(const char *begin, const char *end, double *value,
           bool *out_of_range)
{
    *out_of_range = false;
    const char *p = begin;
    bool plus = p != end && *p == '+';
    if (plus)
        ++p;
    double parsed = 0.0;
    std::from_chars_result res =
        std::from_chars(p, end, parsed, std::chars_format::general);
    if (res.ec == std::errc::invalid_argument || res.ptr == p)
        return begin;
    if (res.ec == std::errc::result_out_of_range) {
        // from_chars leaves the value unmodified on range errors;
        // reconstruct strtod's +-HUGE_VAL / 0 so callers can tell
        // overflow from underflow if they care.
        bool neg = p != end && *p == '-';
        // Heuristic: a tiny magnitude underflows, a huge one
        // overflows. The exponent sign decides which.
        bool under = std::string_view(p, res.ptr - p)
                         .find("e-") != std::string_view::npos ||
                     std::string_view(p, res.ptr - p)
                         .find("E-") != std::string_view::npos;
        parsed = under ? 0.0
                       : (neg ? -HUGE_VAL : HUGE_VAL);
        *out_of_range = !under;
    }
    *value = parsed;
    return res.ptr;
}

double
parseDoubleStrict(const std::string &text, const std::string &what)
{
    std::string token = trim(text);
    if (token.empty())
        badToken(what, text, "empty input");
    const char *begin = token.c_str();
    const char *end = begin + token.size();
    if (looksHex(begin, end))
        badToken(what, text, "hex floats are not accepted");
    double value = 0.0;
    bool out_of_range = false;
    const char *stop = scanDouble(begin, end, &value, &out_of_range);
    if (stop == begin)
        badToken(what, text, "not a number");
    if (stop != end)
        badToken(what, text,
                 "trailing garbage '" + std::string(stop, end) + "'");
    if (out_of_range)
        badToken(what, text, "magnitude out of range");
    // from_chars accepts the textual "inf"/"nan" family; strict
    // config input takes plain decimal numbers only.
    if (std::isinf(value) || std::isnan(value))
        badToken(what, text, "non-finite values are not accepted");
    return value;
}

long
parseIntStrict(const std::string &text, const std::string &what)
{
    std::string token = trim(text);
    if (token.empty())
        badToken(what, text, "empty input");
    const char *begin = token.c_str();
    char *end = nullptr;
    errno = 0;
    long value = std::strtol(begin, &end, 10);
    if (end == begin)
        badToken(what, text, "not an integer");
    if (*end != '\0')
        badToken(what, text,
                 "trailing garbage '" + std::string(end) + "'");
    if (errno == ERANGE)
        badToken(what, text, "magnitude out of range");
    return value;
}

long
parseIntInRange(const std::string &text, long lo, long hi,
                const std::string &what)
{
    long value = parseIntStrict(text, what);
    if (value < lo || value > hi)
        badToken(what, text,
                 "value must be in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
    return value;
}

bool
parseDoublePrefix(const std::string &text, double *value,
                  std::string *rest)
{
    const char *begin = text.c_str();
    const char *end = begin + text.size();
    // strtod skipped leading whitespace; keep that for unit strings
    // like " 24.4 GB/s".
    while (begin != end &&
           std::isspace(static_cast<unsigned char>(*begin)))
        ++begin;
    if (looksHex(begin, end))
        return false;
    double parsed = 0.0;
    bool out_of_range = false;
    const char *stop = scanDouble(begin, end, &parsed, &out_of_range);
    if (stop == begin || out_of_range || std::isinf(parsed) ||
        std::isnan(parsed))
        return false;
    *value = parsed;
    *rest = std::string(stop, end);
    return true;
}

size_t
editDistance(const std::string &a, const std::string &b)
{
    // Single-row Levenshtein DP; key sets are tiny, so O(|a||b|) is
    // more than fast enough.
    std::vector<size_t> row(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        size_t diag = row[0];
        row[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            size_t up = row[j];
            size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min({row[j - 1] + 1, up + 1, subst});
            diag = up;
        }
    }
    return row[b.size()];
}

std::optional<std::string>
closestMatch(const std::string &word,
             const std::vector<std::string> &candidates)
{
    std::string low = toLower(word);
    size_t threshold = low.size() <= 3 ? 1 : 2;
    size_t best = threshold + 1;
    std::optional<std::string> match;
    for (const std::string &cand : candidates) {
        size_t dist = editDistance(low, toLower(cand));
        if (dist < best && dist < std::max<size_t>(low.size(), 1)) {
            best = dist;
            match = cand;
        }
    }
    return match;
}

std::string
didYouMean(const std::string &word,
           const std::vector<std::string> &candidates)
{
    std::optional<std::string> match = closestMatch(word, candidates);
    if (!match)
        return "";
    return " (did you mean '" + *match + "'?)";
}

} // namespace gables
