/**
 * @file
 * Tests of the JSON parser and its flat document: literals, numbers,
 * strings with escapes, containers, error texts and offsets, handle
 * lifetimes, and round-tripping documents produced by JsonWriter.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "replay/bundle.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace gables {
namespace {

/** @return The FatalError text parseJson() throws for @p text. */
std::string
parseError(const std::string &text)
{
    try {
        parseJson(text);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "(parsed)";
}

TEST(JsonReader, Literals)
{
    EXPECT_TRUE(parseJson("null").isNull());
    EXPECT_TRUE(parseJson("true").asBool());
    EXPECT_FALSE(parseJson("false").asBool());
    EXPECT_TRUE(JsonValue().isNull());
}

TEST(JsonReader, Numbers)
{
    EXPECT_DOUBLE_EQ(parseJson("0").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(parseJson("-17").asNumber(), -17.0);
    EXPECT_DOUBLE_EQ(parseJson("3.25").asNumber(), 3.25);
    EXPECT_DOUBLE_EQ(parseJson("6.4e9").asNumber(), 6.4e9);
    EXPECT_DOUBLE_EQ(parseJson("1E-3").asNumber(), 1e-3);
}

/** Numbers the parser accepts, with the exact bits they read as. */
TEST(JsonReader, AcceptedNumbersKeepTheirBits)
{
    struct Case {
        const char *text;
        double value;
    };
    const Case cases[] = {
        {"+5", 5.0},          // leading '+' tolerated
        {"-0", -0.0},         // sign bit kept
        {"-0.0", -0.0},
        {"1e-400", 0.0},      // underflow reads as 0
        {"-1e-400", 0.0},     // ... as +0
        {"5e-324", 5e-324},   // smallest subnormal
        {"1.7976931348623157e308", 1.7976931348623157e308},
        {"00", 0.0},
        {".5", 0.5},
        {"1.", 1.0},
        {"1E+2", 100.0},
        {"+-5", -5.0},
        {"0.1", 0.1},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.text);
        EXPECT_EQ(std::bit_cast<uint64_t>(parseJson(c.text).asNumber()),
                  std::bit_cast<uint64_t>(c.value));
    }
}

/** Malformed documents, each with the exact text (offset included)
 * the parser reports. */
TEST(JsonReader, MalformedInputKeepsItsErrorText)
{
    struct Case {
        std::string text;
        const char *error;
    };
    const Case cases[] = {
        {"1e400", "offset 5: malformed number '1e400'"},
        {"--1", "offset 3: malformed number '--1'"},
        {"1.2.3", "offset 5: malformed number '1.2.3'"},
        {"0x10", "offset 1: trailing characters after JSON document"},
        {"1e", "offset 2: malformed number '1e'"},
        {"-", "offset 1: malformed number '-'"},
        {"+", "offset 1: malformed number '+'"},
        {"[-]", "offset 2: malformed number '-'"},
        {"", "offset 0: unexpected end of input"},
        {"{", "offset 1: unexpected end of input"},
        {"[1,]", "offset 3: expected a value"},
        {"Infinity", "offset 0: expected a value"},
        {"NaN", "offset 0: expected a value"},
        {"{\"a\" 1}", "offset 5: expected ':'"},
        {"{\"a\":1,}", "offset 7: expected '\"'"},
        {"{1:2}", "offset 1: expected '\"'"},
        {"[1 2]", "offset 3: expected ']'"},
        {"\"unterminated", "offset 13: unterminated string"},
        {"\"ab\\", "offset 4: unterminated escape"},
        {"\"\\x\"", "offset 3: bad escape character"},
        {"\"\\u12\"", "offset 3: truncated \\u escape"},
        {"\"\\u12g4\"", "offset 6: bad hex digit in \\u escape"},
        {"nul", "offset 0: bad literal"},
        {"tru", "offset 0: bad literal"},
        {"1 2", "offset 2: trailing characters after JSON document"},
        {"\"a\"x", "offset 3: trailing characters after JSON document"},
        {"{\"k\":{\"k\":{\"k\":1", "offset 16: unexpected end of input"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.text);
        EXPECT_EQ(parseError(c.text),
                  std::string("JSON parse error at ") + c.error);
    }
}

TEST(JsonReader, StringsAndEscapes)
{
    EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
    EXPECT_EQ(parseJson("\"a\\\"b\\\\c\"").asString(), "a\"b\\c");
    EXPECT_EQ(parseJson("\"tab\\there\"").asString(), "tab\there");
    EXPECT_EQ(parseJson("\"\\u0041\"").asString(), "A");
    // U+00E9 (e-acute) becomes two UTF-8 bytes.
    EXPECT_EQ(parseJson("\"\\u00e9\"").asString(), "\xc3\xa9");
    // U+0000 is one NUL byte inside the string, not its end.
    EXPECT_EQ(parseJson("\"a\\u0000b\"").asString(),
              std::string_view("a\0b", 3));
    EXPECT_EQ(parseJson("\"\"").asString(), "");
}

TEST(JsonReader, Containers)
{
    JsonValue arr = parseJson(" [1, \"two\", [3], {\"k\": 4}] ");
    ASSERT_TRUE(arr.isArray());
    ASSERT_EQ(arr.size(), 4u);
    EXPECT_DOUBLE_EQ(arr.at(0).asNumber(), 1.0);
    EXPECT_EQ(arr.at(1).asString(), "two");
    EXPECT_DOUBLE_EQ(arr.at(2).at(0).asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(arr.at(3).at("k").asNumber(), 4.0);

    JsonValue obj = parseJson("{\"a\": {\"b\": []}, \"c\": null}");
    ASSERT_TRUE(obj.isObject());
    EXPECT_EQ(obj.size(), 2u);
    EXPECT_TRUE(obj.has("a"));
    EXPECT_FALSE(obj.has("b"));
    EXPECT_TRUE(obj.at("a").at("b").isArray());
    EXPECT_TRUE(obj.at("c").isNull());
    // Document order is preserved.
    auto member = obj.members().begin();
    EXPECT_EQ((*member).first, "a");
    ++member;
    EXPECT_EQ((*member).first, "c");
}

TEST(JsonReader, EmptyContainers)
{
    JsonValue doc = parseJson("[[], {}, [[]], {\"e\": {}}]");
    ASSERT_EQ(doc.size(), 4u);
    EXPECT_EQ(doc.at(0).size(), 0u);
    EXPECT_EQ(doc.at(1).size(), 0u);
    EXPECT_TRUE(doc.at(0).items().begin() == doc.at(0).items().end());
    EXPECT_TRUE(doc.at(1).members().begin() == doc.at(1).members().end());
    EXPECT_EQ(doc.at(2).at(0).size(), 0u);
    EXPECT_EQ(doc.at(3).at("e").size(), 0u);
    EXPECT_FALSE(doc.at(1).has("x"));
}

TEST(JsonReader, MembersAndItemsInDocumentOrder)
{
    JsonValue doc = parseJson(
        "{\"z\": 1, \"a\": [2, {\"q\": 3}, [4]], \"m\": \"five\"}");
    std::vector<std::string> keys;
    for (const auto &[key, value] : doc.members())
        keys.emplace_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));

    std::vector<JsonValue::Type> types;
    for (const JsonValue &item : doc.at("a").items())
        types.push_back(item.type());
    EXPECT_EQ(types, (std::vector<JsonValue::Type>{
                         JsonValue::Type::Number, JsonValue::Type::Object,
                         JsonValue::Type::Array}));
    // Indexing skips whole subtrees.
    EXPECT_DOUBLE_EQ(doc.at("a").at(2).at(0).asNumber(), 4.0);
    EXPECT_EQ(doc.at("m").asString(), "five");
}

TEST(JsonReader, DuplicateKeysFirstWins)
{
    JsonValue doc = parseJson("{\"a\": 1, \"b\": 2, \"a\": 3}");
    EXPECT_EQ(doc.size(), 3u);
    EXPECT_DOUBLE_EQ(doc.at("a").asNumber(), 1.0);
    ASSERT_TRUE(doc.find("a").has_value());
    EXPECT_DOUBLE_EQ(doc.find("a")->asNumber(), 1.0);
    EXPECT_FALSE(doc.find("c").has_value());
    // members() still yields every member.
    std::vector<double> values;
    for (const auto &[key, value] : doc.members())
        values.push_back(value.asNumber());
    EXPECT_EQ(values, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(JsonReader, MalformedInputIsFatal)
{
    EXPECT_THROW(parseJson(""), FatalError);
    EXPECT_THROW(parseJson("{"), FatalError);
    EXPECT_THROW(parseJson("[1,]"), FatalError);
    EXPECT_THROW(parseJson("{\"a\" 1}"), FatalError);
    EXPECT_THROW(parseJson("\"unterminated"), FatalError);
    EXPECT_THROW(parseJson("nul"), FatalError);
    EXPECT_THROW(parseJson("1 2"), FatalError); // trailing garbage
}

TEST(JsonReader, NestingDepthIsBounded)
{
    auto nested = [](size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_TRUE(parseJson(nested(kJsonMaxDepth)).isArray());
    EXPECT_THROW(parseJson(nested(kJsonMaxDepth + 1)), FatalError);
    EXPECT_EQ(parseError(nested(kJsonMaxDepth + 1)),
              "JSON parse error at offset 256: nesting deeper than 256 "
              "levels");

    std::string objects;
    for (size_t d = 0; d < kJsonMaxDepth; ++d)
        objects += "{\"k\":";
    objects += "1" + std::string(kJsonMaxDepth, '}');
    EXPECT_TRUE(parseJson(objects).isObject());
    EXPECT_THROW(parseJson("[" + objects + "]"), FatalError);

    // A line of '[' far past the limit fails with a located error
    // instead of overflowing the stack.
    try {
        parseJson(std::string(200000, '['));
        FAIL() << "expected a parse error";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "offset " + std::to_string(kJsonMaxDepth)),
                  std::string::npos)
            << e.what();
    }
}

TEST(JsonReader, TypeMismatchIsFatal)
{
    JsonValue v = parseJson("[1]");
    EXPECT_THROW(v.asNumber(), FatalError);
    EXPECT_THROW(v.at("k"), FatalError);
    EXPECT_THROW(v.at(5), FatalError);
    EXPECT_THROW(parseJson("{}").at("missing"), FatalError);
    EXPECT_THROW(v.asString(), FatalError);
    EXPECT_THROW(v.asBool(), FatalError);
    EXPECT_THROW(v.members(), FatalError);
    EXPECT_THROW(v.at(0).items(), FatalError);
    EXPECT_THROW(v.at(0).size(), FatalError);
    EXPECT_THROW(JsonValue().asNumber(), FatalError);
    EXPECT_FALSE(v.has("k"));
    EXPECT_FALSE(v.find("k").has_value());
    try {
        v.asString();
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "JSON value is not a string");
    }
    try {
        parseJson("{}").at("missing");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "JSON object has no member 'missing'");
    }
}

TEST(JsonReader, CopiedRootOutlivesTheOriginal)
{
    JsonValue copy;
    JsonValue child;
    {
        JsonValue root = parseJson("{\"list\": [1, 2, \"three\"]}");
        copy = root;
        child = root.at("list").owned();
    }
    EXPECT_EQ(copy.at("list").at(2).asString(), "three");
    EXPECT_DOUBLE_EQ(child.at(1).asNumber(), 2.0);

    // The document copies its strings, so the text may go first.
    JsonValue from_temporary = parseJson(std::string("[\"kept\"]"));
    EXPECT_EQ(from_temporary.at(0).asString(), "kept");
}

TEST(JsonReader, RoundTripsJsonWriterOutput)
{
    std::ostringstream out;
    JsonWriter json(out, false);
    json.beginObject();
    json.kv("name", "a \"quoted\" name");
    json.kv("pi", 3.141592653589793);
    json.key("list");
    json.beginArray();
    json.value(1.0);
    json.value(-2.5);
    json.endArray();
    json.endObject();

    JsonValue root = parseJson(out.str());
    EXPECT_EQ(root.at("name").asString(), "a \"quoted\" name");
    EXPECT_DOUBLE_EQ(root.at("pi").asNumber(), 3.141592653589793);
    EXPECT_DOUBLE_EQ(root.at("list").at(1).asNumber(), -2.5);
}

/** A leaf or a key of a generated document, in document order. */
using Token = std::variant<std::monostate, bool, uint64_t, std::string>;

/** Writes a random document and records its tokens in order. */
struct RandomDocument {
    std::mt19937_64 rng;
    std::vector<Token> tokens;

    std::string
    randomString()
    {
        // Plain bytes, every escaped byte (quotes, backslash, control
        // bytes including NUL) and raw UTF-8 bytes.
        static const char kBytes[] = "ab Z09\"\\/\b\f\n\r\t\x01\x1f\xc3\xa9";
        std::string s;
        for (size_t n = rng() % 12; n > 0; --n) {
            size_t pick = rng() % (sizeof(kBytes) - 1 + 1);
            s.push_back(pick == sizeof(kBytes) - 1 ? '\0' : kBytes[pick]);
        }
        return s;
    }

    double
    randomDouble()
    {
        switch (rng() % 4) {
          case 0: { // any finite bit pattern, subnormals included
            double v = 0.0;
            do
                v = std::bit_cast<double>(rng());
            while (!std::isfinite(v));
            return v;
          }
          case 1: // subnormal
            return std::bit_cast<double>(rng() & 0x800fffffffffffffULL);
          case 2:
            return static_cast<double>(static_cast<int64_t>(rng() % 2001) -
                                       1000);
          default:
            return std::ldexp(static_cast<double>(rng() % 1000003),
                              static_cast<int>(rng() % 200) - 100);
        }
    }

    void
    write(JsonWriter &json, int depth)
    {
        switch (depth > 3 ? rng() % 4 : rng() % 6) {
          case 0:
            json.valueNull();
            tokens.emplace_back(std::monostate{});
            break;
          case 1: {
            bool b = rng() % 2;
            json.value(b);
            tokens.emplace_back(b);
            break;
          }
          case 2: {
            double v = randomDouble();
            json.value(v);
            tokens.emplace_back(std::bit_cast<uint64_t>(v));
            break;
          }
          case 3: {
            std::string s = randomString();
            json.value(s);
            tokens.emplace_back(s);
            break;
          }
          case 4:
            json.beginArray();
            for (size_t n = rng() % 5; n > 0; --n)
                write(json, depth + 1);
            json.endArray();
            break;
          default:
            json.beginObject();
            for (size_t n = rng() % 5; n > 0; --n) {
                std::string key = randomString();
                json.key(key);
                tokens.emplace_back(key);
                write(json, depth + 1);
            }
            json.endObject();
        }
    }
};

/** Collect a parsed value's tokens in document order. */
void
collect(const JsonValue &v, std::vector<Token> &out)
{
    switch (v.type()) {
      case JsonValue::Type::Null:
        out.emplace_back(std::monostate{});
        break;
      case JsonValue::Type::Bool:
        out.emplace_back(v.asBool());
        break;
      case JsonValue::Type::Number:
        out.emplace_back(std::bit_cast<uint64_t>(v.asNumber()));
        break;
      case JsonValue::Type::String:
        out.emplace_back(std::string(v.asString()));
        break;
      case JsonValue::Type::Array:
        for (const JsonValue &item : v.items())
            collect(item, out);
        break;
      case JsonValue::Type::Object:
        for (const auto &[key, value] : v.members()) {
            out.emplace_back(std::string(key));
            collect(value, out);
        }
        break;
    }
}

/** Seeded round trip: every number reads back to its bits, every
 * string to its bytes, and re-emitting the parse gives the text. */
TEST(JsonReader, RandomDocumentsRoundTripBitsAndBytes)
{
    RandomDocument gen{std::mt19937_64(20261019), {}};
    for (int doc = 0; doc < 500; ++doc) {
        gen.tokens.clear();
        std::string text;
        {
            JsonWriter json(text, doc % 2 == 0);
            json.beginObject();
            json.key("doc");
            gen.write(json, 0);
            json.endObject();
        }
        SCOPED_TRACE(text);
        JsonValue parsed = parseJson(text);
        std::vector<Token> got;
        collect(parsed.at("doc"), got);
        ASSERT_EQ(got, gen.tokens);

        std::string again;
        {
            JsonWriter json(again, doc % 2 == 0);
            replay::writeJsonValue(json, parsed);
        }
        ASSERT_EQ(again, text);
    }
}

TEST(JsonWriter, StringSinkMatchesStreamSink)
{
    auto write = [](JsonWriter &json) {
        json.beginObject();
        json.kv("s", std::string_view("view"));
        json.kv("c", "literal");
        json.kv("b", true);
        json.numberArray("n", {1.5, -0.0, 1e300});
        json.endObject();
    };
    for (bool pretty : {false, true}) {
        std::ostringstream stream;
        {
            JsonWriter json(stream, pretty);
            write(json);
        }
        std::string text = "prefix:";
        {
            JsonWriter json(text, pretty);
            write(json);
        }
        EXPECT_EQ(text, "prefix:" + stream.str());
    }
}

} // namespace
} // namespace gables
