/**
 * @file
 * Unit tests for the table formatter and the JSON writer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <charconv>
#include <cstdint>
#include <sstream>

#include "util/json_writer.h"
#include "util/logging.h"
#include "util/table.h"

namespace gables {
namespace {

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::string out = t.render();
    // Header then rule then two rows.
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    // Every line has the same width.
    std::istringstream iss(out);
    std::string line;
    size_t width = 0;
    while (std::getline(iss, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width);
    }
}

TEST(TextTable, RowCellCountEnforced)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), FatalError);
    EXPECT_THROW(t.addRow({"1", "2", "3"}), FatalError);
}

TEST(TextTable, RowCount)
{
    TextTable t({"a"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.addRow({"1"});
    t.addRow({"2"});
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, RulesAlignmentAndWideOrEmptyCells)
{
    // The header rule spans widened columns; a left-aligned third
    // column; cells wider than their header; empty cells.
    TextTable t({"name", "v", "unit"});
    t.setAlign(2, TextTable::Align::Left);
    t.addRow({"alpha", "12345", ""});
    t.addRow({"", "7", "ms"});
    EXPECT_EQ(t.rowCount(), 2u);
    EXPECT_EQ(t.render(), " name  |     v | unit \n"
                          "-------+-------+------\n"
                          " alpha | 12345 |      \n"
                          "       |     7 | ms   \n");
}

TEST(TextTable, HeaderOnly)
{
    TextTable t({"a", "bb"});
    EXPECT_EQ(t.render(), " a | bb \n"
                          "---+----\n");
}

/**
 * TextTable's layout of @p headers and @p rows, spelled out without
 * it; @p left marks the left-aligned columns.
 */
std::string
layout(const std::vector<std::string> &headers,
       const std::vector<std::vector<std::string>> &rows,
       const std::vector<bool> &left)
{
    std::vector<size_t> widths;
    for (size_t c = 0; c < headers.size(); ++c) {
        widths.push_back(headers[c].size());
        for (const auto &row : rows)
            widths[c] = std::max(widths[c], row[c].size());
    }
    auto line = [&](const std::vector<std::string> &cells) {
        std::string out;
        for (size_t c = 0; c < cells.size(); ++c) {
            std::string pad(widths[c] - cells[c].size(), ' ');
            out += " " + (left[c] ? cells[c] + pad : pad + cells[c]) + " ";
            out += c + 1 < cells.size() ? "|" : "\n";
        }
        return out;
    };
    std::string out = line(headers);
    for (size_t c = 0; c < widths.size(); ++c)
        out += std::string(widths[c] + 2, '-') +
               (c + 1 < widths.size() ? "+" : "\n");
    for (const auto &row : rows)
        out += line(row);
    return out;
}

TEST(TextTable, WriteEqualsRenderAcrossChunks)
{
    // Left and right columns, a cell far wider than its header, and
    // enough rows for several kChunkBytes hand-offs.
    std::vector<std::string> headers = {"k", "value", "note"};
    TextTable t(headers);
    t.setAlign(2, TextTable::Align::Left);
    std::vector<std::vector<std::string>> rows;
    for (int i = 0; i < 6000; ++i) {
        rows.push_back({"r" + std::to_string(i), std::to_string(i * 7),
                        i == 4321 ? std::string(40, 'w') : "n"});
        t.addRow(rows.back());
    }
    std::string expected = layout(headers, rows, {true, false, true});
    ASSERT_GT(expected.size(), 4 * TextTable::kChunkBytes);
    std::ostringstream out;
    out << "head ";
    t.write(out);
    out << "tail";
    EXPECT_EQ(t.render(), expected);
    EXPECT_EQ(out.str(), "head " + expected + "tail");
}

TEST(TextTable, CellFunctionEqualsStoredRows)
{
    auto text = [](size_t r, size_t c) {
        return c == 0 ? std::to_string(r) : std::string(r % 13, 'x');
    };
    TextTable stored({"row", "xs"});
    for (size_t r = 0; r < 9000; ++r)
        stored.addRow({text(r, 0), text(r, 1)});
    // The function table keeps its stored rows out of the output.
    TextTable streamed({"row", "xs"});
    streamed.addRow({"unused", "row"});
    std::ostringstream out;
    streamed.write(out, 9000, text);
    EXPECT_EQ(out.str(), stored.render());

    std::ostringstream none;
    streamed.write(none, 0, text);
    EXPECT_EQ(none.str(), " row | xs \n"
                          "-----+----\n");
}

TEST(Json, SimpleObject)
{
    std::ostringstream oss;
    JsonWriter json(oss, false);
    json.beginObject();
    json.kv("name", "gables");
    json.kv("n", 3);
    json.kv("ok", true);
    json.endObject();
    EXPECT_TRUE(json.done());
    EXPECT_EQ(oss.str(), "{\"name\":\"gables\",\"n\":3,\"ok\":true}");
}

TEST(Json, NestedArraysAndObjects)
{
    std::ostringstream oss;
    JsonWriter json(oss, false);
    json.beginObject();
    json.key("ips");
    json.beginArray();
    json.beginObject();
    json.kv("a", 1.0);
    json.endObject();
    json.beginObject();
    json.kv("a", 2.5);
    json.endObject();
    json.endArray();
    json.endObject();
    EXPECT_EQ(oss.str(), "{\"ips\":[{\"a\":1},{\"a\":2.5}]}");
}

TEST(Json, EscapesStrings)
{
    std::ostringstream oss;
    JsonWriter json(oss, false);
    json.beginObject();
    json.kv("s", std::string("line\n\"q\"\\"));
    json.endObject();
    EXPECT_EQ(oss.str(), "{\"s\":\"line\\n\\\"q\\\"\\\\\"}");
}

TEST(Json, NanBecomesNull)
{
    std::ostringstream oss;
    JsonWriter json(oss, false);
    json.beginArray();
    json.value(std::numeric_limits<double>::quiet_NaN());
    json.value(1.0);
    json.endArray();
    EXPECT_EQ(oss.str(), "[null,1]");
}

TEST(Json, NumberArrayHelper)
{
    std::ostringstream oss;
    JsonWriter json(oss, false);
    json.beginObject();
    json.numberArray("xs", {1.0, 2.0, 3.0});
    json.endObject();
    EXPECT_EQ(oss.str(), "{\"xs\":[1,2,3]}");
}

TEST(Json, DocumentLargerThanOneChunk)
{
    // Built by hand: the writer's bytes must all be in the stream once
    // the root closes, with the writer still alive.
    std::string expected = "{\n  \"items\": [";
    std::ostringstream oss;
    JsonWriter json(oss, true);
    json.beginObject();
    json.key("items");
    json.beginArray();
    for (int i = 0; i < 20000; ++i) {
        json.beginObject();
        json.kv("i", i);
        json.kv("half", i / 2.0);
        json.kv("tag", "t\"" + std::to_string(i));
        json.endObject();
        expected += std::string(i ? "," : "") + "\n    {\n      \"i\": " +
                    std::to_string(i) + ",\n      \"half\": " +
                    std::to_string(i / 2) + (i % 2 ? ".5" : "") +
                    ",\n      \"tag\": \"t\\\"" + std::to_string(i) +
                    "\"\n    }";
    }
    json.endArray();
    json.endObject();
    expected += "\n  ]\n}\n";
    ASSERT_GT(expected.size(), 4 * JsonWriter::kChunkBytes);
    EXPECT_TRUE(json.done());
    EXPECT_EQ(oss.str(), expected);

    // Bytes the caller writes after the root follow it.
    oss << "tail";
    EXPECT_EQ(oss.str(), expected + "tail");
}

TEST(Json, BareRootScalarReachesTheStream)
{
    std::ostringstream num, str;
    JsonWriter a(num, true);
    a.value(0.1);
    EXPECT_TRUE(a.done());
    EXPECT_EQ(num.str(), "0.1");
    JsonWriter b(str, false);
    b.value("x\ty");
    EXPECT_EQ(str.str(), "\"x\\ty\"");
}

TEST(Json, UnfinishedDocumentIsFlushedByTheDestructor)
{
    std::ostringstream oss;
    {
        JsonWriter json(oss, false);
        json.beginArray();
        json.value(1);
        json.value(static_cast<long>(-2));
        json.value(static_cast<size_t>(3));
        EXPECT_FALSE(json.done());
    }
    EXPECT_EQ(oss.str(), "[1,-2,3");
}

TEST(Json, DoubleRoundTripPrecision)
{
    // Every finite double reads back bit for bit, whichever of
    // "%.12g" and "%.17g" the writer picked.
    const double values[] = {0.1,        1.0 / 3.0,     -0.0,
                             5e-324,     DBL_MIN,       -DBL_MAX,
                             1e-7,       0x1p50 + 0.25, 1e23,
                             2.0 / 3e-11, 123456789012.5};
    std::ostringstream oss;
    JsonWriter json(oss, false);
    json.beginArray();
    for (double v : values)
        json.value(v);
    json.endArray();
    const std::string text = oss.str();
    const char *p = text.data() + 1;
    for (double v : values) {
        double back = 0.0;
        std::from_chars_result res =
            std::from_chars(p, text.data() + text.size(), back);
        ASSERT_EQ(res.ec, std::errc()) << text;
        EXPECT_EQ(std::bit_cast<uint64_t>(back), std::bit_cast<uint64_t>(v))
            << std::string(p, res.ptr);
        p = res.ptr + 1;
    }
    EXPECT_EQ(p, text.data() + text.size());
}

} // namespace
} // namespace gables
