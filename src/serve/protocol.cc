#include "serve/protocol.h"

#include <string_view>

#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace gables {
namespace serve {

std::string
toString(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::BadRequest: return "bad-request";
      case ErrorKind::Config: return "config";
      case ErrorKind::Deadline: return "deadline";
      case ErrorKind::Internal: return "internal";
    }
    return "internal";
}

int
errorCode(ErrorKind kind)
{
    // Mirrors the CLI exit-code contract: 2 for requests the server
    // cannot understand (usage errors), 1 for requests it understood
    // but could not satisfy.
    return kind == ErrorKind::BadRequest ? 2 : 1;
}

std::string
renderId(const JsonValue &id)
{
    std::string out;
    JsonWriter json(out, false);
    switch (id.type()) {
      case JsonValue::Type::String:
        json.value(id.asString());
        break;
      case JsonValue::Type::Number:
        json.value(id.asNumber());
        break;
      case JsonValue::Type::Bool:
        json.value(id.asBool());
        break;
      default:
        return "null";
    }
    return out;
}

std::string
errorResponse(const std::string &id_json, const ServeError &error)
{
    std::string out = "{\"id\": ";
    out += id_json;
    out += ", \"ok\": false, \"error\": ";
    {
        JsonWriter json(out, false);
        json.beginObject();
        json.kv("code", errorCode(error.kind));
        json.kv("kind", toString(error.kind));
        json.kv("message", error.message);
        json.endObject();
    }
    out += '}';
    return out;
}

std::string
okResponse(const std::string &id_json, const std::string &result_json)
{
    static constexpr std::string_view kHead = "{\"id\": ";
    static constexpr std::string_view kOk = ", \"ok\": true, \"result\": ";
    std::string out;
    out.reserve(kHead.size() + id_json.size() + kOk.size() +
                result_json.size() + 1);
    out += kHead;
    out += id_json;
    out += kOk;
    out += result_json;
    out += '}';
    return out;
}

} // namespace serve
} // namespace gables
