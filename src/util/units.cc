#include "util/units.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>

#include "util/logging.h"
#include "util/parse.h"
#include "util/strings.h"

namespace gables {

namespace {

/** The most significant digits the formatters below accept. */
constexpr int kMaxUnitPrecision = 64;

struct Prefix {
    const char *name;
    double scale;
};

/**
 * printf("%.*g") of @p value in the C locale: what a default-format
 * stream with this precision prints, without the stream or its locale.
 */
std::string
formatGeneral(double value, int precision)
{
    if (precision > kMaxUnitPrecision)
        fatal("unit formatting precision " + std::to_string(precision) +
              " exceeds " + std::to_string(kMaxUnitPrecision));
    // Holds a sign, the digits, the point and "e-308".
    char buf[kMaxUnitPrecision + 8];
    std::to_chars_result res = std::to_chars(
        buf, buf + sizeof buf, value, std::chars_format::general,
        precision);
    if (res.ec != std::errc())
        fatal("unit formatting: to_chars failed");
    return std::string(buf, res.ptr);
}

/**
 * Scale a value into the largest prefix with magnitude >= 1 and format
 * it with the given unit suffix.
 */
std::string
formatScaled(double value, const char *unit, int precision,
             bool binary_prefixes)
{
    static constexpr std::array<Prefix, 5> decimal = {{
        {"T", kTera}, {"G", kGiga}, {"M", kMega}, {"k", kKilo}, {"", 1.0}
    }};
    static constexpr std::array<Prefix, 4> binary = {{
        {"Gi", kGiB}, {"Mi", kMiB}, {"Ki", kKiB}, {"", 1.0}
    }};
    static constexpr std::array<Prefix, 4> sub = {{
        {"m", 1e-3}, {"u", 1e-6}, {"n", 1e-9}, {"p", 1e-12}
    }};

    if (value == 0.0 || std::isnan(value) || std::isinf(value))
        return formatGeneral(value, precision) + ' ' + unit;

    double mag = std::fabs(value);
    const char *prefix = "";
    double scale = 1.0;
    if (mag >= 1.0) {
        if (binary_prefixes) {
            for (const auto &p : binary) {
                if (mag >= p.scale) {
                    prefix = p.name;
                    scale = p.scale;
                    break;
                }
            }
        } else {
            for (const auto &p : decimal) {
                if (mag >= p.scale) {
                    prefix = p.name;
                    scale = p.scale;
                    break;
                }
            }
        }
    } else if (!binary_prefixes) {
        // Sub-unit magnitudes only make sense for decimal units;
        // binary formatting clamps at the base unit so a fractional
        // byte count prints as "0.5 B", never "500 mB" (millibytes).
        for (const auto &p : sub) {
            prefix = p.name;
            scale = p.scale;
            if (mag >= p.scale)
                break;
        }
    }
    return formatGeneral(value / scale, precision) + ' ' + prefix + unit;
}

} // namespace

std::string
formatOpsRate(double ops_per_sec, int precision)
{
    return formatScaled(ops_per_sec, "ops/s", precision, false);
}

std::string
formatByteRate(double bytes_per_sec, int precision)
{
    return formatScaled(bytes_per_sec, "B/s", precision, false);
}

std::string
formatBytes(double bytes, int precision)
{
    return formatScaled(bytes, "B", precision, true);
}

double
parseRate(const std::string &text)
{
    std::string s = trim(text);
    if (s.empty())
        fatal("cannot parse empty quantity string");

    // Parse the leading number.
    double value = 0.0;
    std::string tail;
    if (!parseDoublePrefix(s, &value, &tail))
        fatal("cannot parse quantity '" + text + "': no leading number");

    std::string unit = trim(tail);
    if (unit.empty())
        return value;

    double scale = 1.0;
    // Binary prefixes: Ki, Mi, Gi (case-sensitive 'i'; the prefix
    // letter itself is case-insensitive, consistently for all three).
    if (unit.size() >= 2 && unit[1] == 'i') {
        switch (unit[0]) {
          case 'K': case 'k': scale = kKiB; break;
          case 'M': case 'm': scale = kMiB; break;
          case 'G': case 'g': scale = kGiB; break;
          default:
            fatal("unknown binary prefix in '" + text + "'");
        }
        unit = unit.substr(2);
    } else {
        switch (unit[0]) {
          case 'k': case 'K': scale = kKilo; unit = unit.substr(1); break;
          case 'M': scale = kMega; unit = unit.substr(1); break;
          case 'G': scale = kGiga; unit = unit.substr(1); break;
          case 'T': scale = kTera; unit = unit.substr(1); break;
          // Sub-unit prefixes, as formatOpsRate emits them.
          case 'm': case 'u': case 'n': case 'p':
            scale = unit[0] == 'm'   ? 1e-3
                    : unit[0] == 'u' ? 1e-6
                    : unit[0] == 'n' ? 1e-9
                                     : 1e-12;
            unit = unit.substr(1);
            break;
          default: break;
        }
    }

    // Validate the residual unit tag, if any.
    std::string low = toLower(unit);
    if (!low.empty()) {
        static const char *ok_rate[] = {
            "ops/s", "ops/sec", "flops/s", "flops/sec", "flop/s",
            "b/s", "bytes/s", "byte/s", "bytes/sec", "hz",
        };
        bool found = false;
        for (const char *u : ok_rate)
            found = found || (low == u);
        if (!found)
            fatal("unknown unit '" + unit + "' in '" + text + "'");
    }
    return value * scale;
}

} // namespace gables
