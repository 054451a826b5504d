#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/decimal.h"
#include "util/logging.h"

namespace gables {

std::string
trim(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
toLower(const std::string &s)
{
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return out;
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string field;
    std::istringstream iss(s);
    while (std::getline(iss, field, delim))
        out.push_back(field);
    if (!s.empty() && s.back() == delim)
        out.push_back("");
    if (s.empty())
        out.push_back("");
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
formatDouble(double value, int precision)
{
    if (std::isnan(value))
        return "nan";
    if (std::isinf(value))
        return value > 0 ? "inf" : "-inf";
    if (precision > kFormatDoubleMaxPrecision)
        fatal("formatDouble: precision " + std::to_string(precision) +
              " exceeds " + std::to_string(kFormatDoubleMaxPrecision));
    // Room for -DBL_MAX: a sign, 309 integer digits, the point and
    // the fraction digits.
    char buf[1 + std::numeric_limits<double>::max_exponent10 + 1 + 1 +
             kFormatDoubleMaxPrecision];
    return std::string(buf, writeFixedTrimmed(buf, buf + sizeof buf,
                                               value, precision));
}

std::string
padLeft(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

} // namespace gables
