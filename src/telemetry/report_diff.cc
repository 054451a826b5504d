#include "telemetry/report_diff.h"

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>

#include "util/decimal.h"
#include "util/json_reader.h"
#include "util/strings.h"

namespace gables {
namespace telemetry {

namespace {

std::string
render(const JsonValue &v)
{
    switch (v.type()) {
    case JsonValue::Type::Null:
        return "null";
    case JsonValue::Type::Bool:
        return v.asBool() ? "true" : "false";
    case JsonValue::Type::Number: {
        char buf[kGeneralChars];
        return std::string(buf, writeGeneral17(buf, v.asNumber()));
    }
    case JsonValue::Type::String: {
        std::string out = "\"";
        out += v.asString();
        out += '"';
        return out;
    }
    case JsonValue::Type::Array:
        return "[array of " + std::to_string(v.size()) + "]";
    case JsonValue::Type::Object:
        return "{object of " + std::to_string(v.size()) + "}";
    }
    return "?";
}

const char *
typeName(JsonValue::Type t)
{
    switch (t) {
    case JsonValue::Type::Null:
        return "null";
    case JsonValue::Type::Bool:
        return "bool";
    case JsonValue::Type::Number:
        return "number";
    case JsonValue::Type::String:
        return "string";
    case JsonValue::Type::Array:
        return "array";
    case JsonValue::Type::Object:
        return "object";
    }
    return "?";
}

/**
 * @return The member of object @p to that pairs with member @p pos of
 * object @p from, named @p key: the k-th member named @p key in each.
 */
std::optional<JsonValue>
counterpart(const JsonValue &from, size_t pos, std::string_view key,
            const JsonValue &to)
{
    size_t k = 0;
    for (const auto &member : from.members()) {
        if (pos-- == 0)
            break;
        k += member.first == key;
    }
    for (const auto &[name, value] : to.members())
        if (name == key && k-- == 0)
            return value;
    return std::nullopt;
}

/**
 * Walks two documents in step. The dotted path of the current field
 * is one buffer, extended on the way down and cut back on the way up,
 * so a field costs no allocation unless it is reported.
 */
struct Walker {
    const ReportDiffOptions &opts;
    ReportDiffResult &result;
    std::string path;

    void
    report(const std::string &reason, const std::string &a,
           const std::string &b)
    {
        if (result.diffs.size() >= opts.maxDiffs) {
            result.truncated = true;
            return;
        }
        result.diffs.push_back(FieldDiff{path, reason, a, b});
    }

    /** Extend the path by member @p key. */
    void
    enterMember(std::string_view key)
    {
        if (!path.empty())
            path += '.';
        path += key;
    }

    /** Extend the path by array element @p i. */
    void
    enterItem(size_t i)
    {
        char digits[24];
        std::to_chars_result res =
            std::to_chars(digits, digits + sizeof digits, i);
        path += '[';
        path.append(digits, res.ptr);
        path += ']';
    }

    /** True when @p key (a whole member key) or the current path
     * (which ends in it) is on the ignore list. */
    bool
    ignored(std::string_view key) const
    {
        for (const std::string &ig : opts.ignore) {
            if (ig == key || ig == path ||
                (path.size() > ig.size() &&
                 path.compare(0, ig.size(), ig) == 0 &&
                 path[ig.size()] == '.'))
                return true;
        }
        return false;
    }

    bool
    numbersMatch(double a, double b, bool exact) const
    {
        if (a == b)
            return true;
        if (std::isnan(a) && std::isnan(b))
            return true;
        if (exact)
            return false;
        if (opts.minRatio >= 0.0 && a > 0.0)
            return b / a >= opts.minRatio;
        double scale = std::max(std::fabs(a), std::fabs(b));
        return std::fabs(a - b) <= opts.tolAbs + opts.tolRel * scale;
    }

    /** @param exact True inside the "schema" subtree, where the
     * tolerances never apply. */
    void
    walk(const JsonValue &a, const JsonValue &b, bool exact)
    {
        if (a.type() != b.type()) {
            ++result.fieldsCompared;
            report(std::string("type (") + typeName(a.type()) + " vs " +
                       typeName(b.type()) + ")",
                   render(a), render(b));
            return;
        }
        const size_t mark = path.size();
        switch (a.type()) {
        case JsonValue::Type::Object: {
            // A key that repeats pairs by occurrence: the k-th member
            // named k in A with the k-th named k in B.
            const bool root = path.empty();
            for (size_t pos = 0; const auto &[key, value] : a.members()) {
                enterMember(key);
                if (!ignored(key)) {
                    auto other = counterpart(a, pos, key, b);
                    if (other) {
                        walk(value, *other,
                             exact || (root && key == "schema"));
                    } else {
                        ++result.fieldsCompared;
                        report("missing in B", render(value), "-");
                    }
                }
                path.resize(mark);
                ++pos;
            }
            for (size_t pos = 0; const auto &[key, value] : b.members()) {
                enterMember(key);
                if (!ignored(key) && !counterpart(b, pos, key, a)) {
                    ++result.fieldsCompared;
                    report("missing in A", "-", render(value));
                }
                path.resize(mark);
                ++pos;
            }
            break;
        }
        case JsonValue::Type::Array: {
            if (a.size() != b.size()) {
                ++result.fieldsCompared;
                report("array length", std::to_string(a.size()),
                       std::to_string(b.size()));
                return;
            }
            // Walk both arrays in step: element i of a flat document
            // is a walk from the first, so at(i) would be quadratic.
            size_t i = 0;
            auto bi = b.items().begin();
            for (const JsonValue &item : a.items()) {
                enterItem(i++);
                walk(item, *bi, exact);
                ++bi;
                path.resize(mark);
            }
            break;
        }
        case JsonValue::Type::Number:
            ++result.fieldsCompared;
            if (!numbersMatch(a.asNumber(), b.asNumber(), exact))
                report("value", render(a), render(b));
            break;
        case JsonValue::Type::String:
            ++result.fieldsCompared;
            if (a.asString() != b.asString())
                report("value", render(a), render(b));
            break;
        case JsonValue::Type::Bool:
            ++result.fieldsCompared;
            if (a.asBool() != b.asBool())
                report("value", render(a), render(b));
            break;
        case JsonValue::Type::Null:
            ++result.fieldsCompared;
            break;
        }
    }
};

} // namespace

ReportDiffResult
diffReports(const JsonValue &a, const JsonValue &b,
            const ReportDiffOptions &opts)
{
    ReportDiffResult result;
    Walker walker{opts, result, {}};
    walker.walk(a, b, false);
    return result;
}

std::string
formatDiff(const ReportDiffResult &result)
{
    std::string out;
    for (const FieldDiff &d : result.diffs) {
        out += "  " + d.path + ": " + d.reason + "\n";
        out += "    A: " + d.a + "\n";
        out += "    B: " + d.b + "\n";
    }
    if (result.truncated)
        out += "  ... further differences truncated\n";
    return out;
}

void
addIgnoreSpecs(ReportDiffOptions &opts,
               const std::vector<std::string> &specs)
{
    for (const std::string &spec : specs) {
        for (const std::string &piece : split(spec, ',')) {
            if (!piece.empty())
                opts.ignore.push_back(piece);
        }
    }
}

} // namespace telemetry
} // namespace gables
