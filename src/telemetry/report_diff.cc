#include "telemetry/report_diff.h"

#include <cmath>

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
    case JsonValue::Type::String:
        return "\"" + v.asString() + "\"";
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

struct Walker {
    const ReportDiffOptions &opts;
    ReportDiffResult &result;

    void
    report(const std::string &path, const std::string &reason,
           const std::string &a, const std::string &b)
    {
        if (result.diffs.size() >= opts.maxDiffs) {
            result.truncated = true;
            return;
        }
        result.diffs.push_back(FieldDiff{path, reason, a, b});
    }

    /** True when @p key (a whole member key) or the path formed by
     * appending it is on the ignore list. */
    bool
    ignored(const std::string &path, const std::string &key) const
    {
        for (const std::string &ig : opts.ignore) {
            if (ig == key)
                return true;
            std::string full =
                path.empty() ? key : path + "." + key;
            if (ig == full || startsWith(full, ig + "."))
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
    walk(const std::string &path, const JsonValue &a,
         const JsonValue &b, bool exact)
    {
        if (a.type() != b.type()) {
            ++result.fieldsCompared;
            report(path,
                   std::string("type (") + typeName(a.type()) +
                       " vs " + typeName(b.type()) + ")",
                   render(a), render(b));
            return;
        }
        switch (a.type()) {
        case JsonValue::Type::Object: {
            for (const auto &m : a.members()) {
                if (ignored(path, m.first))
                    continue;
                std::string child =
                    path.empty() ? m.first : path + "." + m.first;
                bool child_exact =
                    exact || (path.empty() && m.first == "schema");
                if (!b.has(m.first)) {
                    ++result.fieldsCompared;
                    report(child, "missing in B", render(m.second),
                           "-");
                    continue;
                }
                walk(child, m.second, b.at(m.first), child_exact);
            }
            for (const auto &m : b.members()) {
                if (ignored(path, m.first))
                    continue;
                if (!a.has(m.first)) {
                    std::string child =
                        path.empty() ? m.first : path + "." + m.first;
                    ++result.fieldsCompared;
                    report(child, "missing in A", "-",
                           render(m.second));
                }
            }
            break;
        }
        case JsonValue::Type::Array: {
            if (a.size() != b.size()) {
                ++result.fieldsCompared;
                report(path, "array length",
                       std::to_string(a.size()),
                       std::to_string(b.size()));
                return;
            }
            for (size_t i = 0; i < a.size(); ++i)
                walk(path + "[" + std::to_string(i) + "]", a.at(i),
                     b.at(i), exact);
            break;
        }
        case JsonValue::Type::Number:
            ++result.fieldsCompared;
            if (!numbersMatch(a.asNumber(), b.asNumber(), exact))
                report(path, "value", render(a), render(b));
            break;
        case JsonValue::Type::String:
            ++result.fieldsCompared;
            if (a.asString() != b.asString())
                report(path, "value", render(a), render(b));
            break;
        case JsonValue::Type::Bool:
            ++result.fieldsCompared;
            if (a.asBool() != b.asBool())
                report(path, "value", render(a), render(b));
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
    Walker walker{opts, result};
    walker.walk("", a, b, false);
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
