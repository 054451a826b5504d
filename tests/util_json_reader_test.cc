/**
 * @file
 * Tests of the minimal JSON parser: literals, numbers, strings with
 * escapes, containers, error reporting, and round-tripping documents
 * produced by JsonWriter.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace gables {
namespace {

TEST(JsonReader, Literals)
{
    EXPECT_TRUE(parseJson("null").isNull());
    EXPECT_TRUE(parseJson("true").asBool());
    EXPECT_FALSE(parseJson("false").asBool());
}

TEST(JsonReader, Numbers)
{
    EXPECT_DOUBLE_EQ(parseJson("0").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(parseJson("-17").asNumber(), -17.0);
    EXPECT_DOUBLE_EQ(parseJson("3.25").asNumber(), 3.25);
    EXPECT_DOUBLE_EQ(parseJson("6.4e9").asNumber(), 6.4e9);
    EXPECT_DOUBLE_EQ(parseJson("1E-3").asNumber(), 1e-3);
}

TEST(JsonReader, StringsAndEscapes)
{
    EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
    EXPECT_EQ(parseJson("\"a\\\"b\\\\c\"").asString(), "a\"b\\c");
    EXPECT_EQ(parseJson("\"tab\\there\"").asString(), "tab\there");
    EXPECT_EQ(parseJson("\"\\u0041\"").asString(), "A");
    // U+00E9 (e-acute) becomes two UTF-8 bytes.
    EXPECT_EQ(parseJson("\"\\u00e9\"").asString(), "\xc3\xa9");
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
    EXPECT_EQ(obj.members()[0].first, "a");
    EXPECT_EQ(obj.members()[1].first, "c");
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

} // namespace
} // namespace gables
