#include "replay/bundle.h"

#include "util/json_writer.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/strings.h"

namespace gables {
namespace replay {

void
writeJsonValue(JsonWriter &json, const JsonValue &value)
{
    switch (value.type()) {
      case JsonValue::Type::Null:
        json.valueNull();
        break;
      case JsonValue::Type::Bool:
        json.value(value.asBool());
        break;
      case JsonValue::Type::Number:
        json.value(value.asNumber());
        break;
      case JsonValue::Type::String:
        json.value(value.asString());
        break;
      case JsonValue::Type::Array:
        json.beginArray();
        for (const JsonValue &item : value.items())
            writeJsonValue(json, item);
        json.endArray();
        break;
      case JsonValue::Type::Object:
        json.beginObject();
        for (const auto &m : value.members()) {
            json.key(m.first);
            writeJsonValue(json, m.second);
        }
        json.endObject();
        break;
    }
}

void
writeBundle(std::ostream &out, const ReplayBundle &bundle)
{
    JsonWriter json(out, true);
    json.beginObject();

    json.key("schema");
    json.beginObject();
    json.kv("name", ReplayBundle::kSchemaName);
    json.kv("version", bundle.schemaVersion);
    json.endObject();

    json.key("command");
    json.beginObject();
    json.kv("subcommand", bundle.subcommand());
    json.key("argv");
    json.beginArray();
    for (const std::string &arg : bundle.argv)
        json.value(arg);
    json.endArray();
    json.endObject();

    json.key("config_files");
    json.beginObject();
    for (const auto &[path, contents] : bundle.configFiles)
        json.kv(path, contents);
    json.endObject();

    json.kv("exit_code", bundle.exitCode);

    json.key("tolerance");
    json.beginObject();
    json.kv("tol_rel", bundle.tolerance.tolRel);
    json.kv("tol_abs", bundle.tolerance.tolAbs);
    json.key("ignore");
    json.beginArray();
    for (const std::string &ig : bundle.tolerance.ignore)
        json.value(ig);
    json.endArray();
    json.endObject();

    if (bundle.hasReport) {
        json.key("report");
        writeJsonValue(json, bundle.report);
    }

    json.endObject();
    out << '\n';
}

namespace {

/** Fail bundle decoding with a "source: message" ConfigError. */
[[noreturn]] void
badBundle(const std::string &source, const std::string &msg)
{
    throw ConfigError(SourceLoc{source, 0}, msg);
}

} // namespace

ReplayBundle
parseBundle(const JsonValue &doc, const std::string &source)
{
    if (!doc.isObject())
        badBundle(source, "replay bundle root must be an object");
    if (!doc.has("schema") || !doc.at("schema").isObject())
        badBundle(source, "replay bundle has no schema header");
    const JsonValue &schema = doc.at("schema");
    if (!schema.has("name") || !schema.at("name").isString() ||
        schema.at("name").asString() != ReplayBundle::kSchemaName)
        badBundle(source, "not a replay bundle (schema name is not '" +
                              std::string(ReplayBundle::kSchemaName) +
                              "')");
    if (!schema.has("version") || !schema.at("version").isNumber())
        badBundle(source, "replay bundle schema has no version");
    double version = schema.at("version").asNumber();
    if (version != ReplayBundle::kSchemaVersion)
        badBundle(source,
                  "unsupported replay bundle schema version " +
                      formatDouble(version, 0) + " (this build reads "
                      "version " +
                      std::to_string(ReplayBundle::kSchemaVersion) +
                      ")");

    ReplayBundle bundle;
    bundle.schemaVersion = ReplayBundle::kSchemaVersion;

    if (!doc.has("command") || !doc.at("command").isObject() ||
        !doc.at("command").has("argv") ||
        !doc.at("command").at("argv").isArray())
        badBundle(source, "replay bundle has no command.argv array");
    for (const JsonValue &arg : doc.at("command").at("argv").items()) {
        if (!arg.isString())
            badBundle(source, "command.argv entries must be strings");
        bundle.argv.emplace_back(arg.asString());
    }
    if (bundle.argv.size() < 2)
        badBundle(source, "command.argv must name a subcommand");

    if (doc.has("config_files")) {
        if (!doc.at("config_files").isObject())
            badBundle(source, "config_files must be an object");
        for (const auto &[path, contents] :
             doc.at("config_files").members()) {
            if (!contents.isString())
                badBundle(source, "config_files values must be the "
                                  "file contents as strings");
            bundle.configFiles[std::string(path)] = contents.asString();
        }
    }

    if (!doc.has("exit_code") || !doc.at("exit_code").isNumber())
        badBundle(source, "replay bundle has no exit_code");
    bundle.exitCode =
        static_cast<int>(doc.at("exit_code").asNumber());

    if (doc.has("tolerance")) {
        const JsonValue &tol = doc.at("tolerance");
        if (!tol.isObject())
            badBundle(source, "tolerance must be an object");
        if (tol.has("tol_rel"))
            bundle.tolerance.tolRel = tol.at("tol_rel").asNumber();
        if (tol.has("tol_abs"))
            bundle.tolerance.tolAbs = tol.at("tol_abs").asNumber();
        if (bundle.tolerance.tolRel < 0.0 ||
            bundle.tolerance.tolAbs < 0.0)
            badBundle(source, "tolerance values must be >= 0");
        if (tol.has("ignore")) {
            if (!tol.at("ignore").isArray())
                badBundle(source, "tolerance.ignore must be an array");
            for (const JsonValue &ig : tol.at("ignore").items()) {
                if (!ig.isString())
                    badBundle(source, "tolerance.ignore entries must "
                                      "be strings");
                bundle.tolerance.ignore.emplace_back(ig.asString());
            }
        }
    }

    if (doc.has("report")) {
        if (!doc.at("report").isObject())
            badBundle(source, "report must be an object");
        bundle.hasReport = true;
        // The bundle outlives the caller's document: own it.
        bundle.report = doc.at("report").owned();
    }
    return bundle;
}

} // namespace replay
} // namespace gables
