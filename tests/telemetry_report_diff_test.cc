/**
 * @file
 * Tests of the run-report diff engine behind `gables report diff`:
 * exact and tolerant numeric comparison, the one-sided --min-ratio
 * perf gate, ignore lists (keys, dotted paths, prefixes), structural
 * mismatches, the always-exact schema subtree, and diff truncation.
 */

#include <gtest/gtest.h>

#include "telemetry/report_diff.h"
#include "util/json_reader.h"

namespace gables {
namespace telemetry {
namespace {

ReportDiffResult
diffText(const std::string &a, const std::string &b,
         const ReportDiffOptions &options = {})
{
    JsonValue da = parseJson(a);
    JsonValue db = parseJson(b);
    return diffReports(da, db, options);
}

TEST(ReportDiff, IdenticalDocumentsMatch)
{
    const std::string doc =
        R"({"schema": {"name": "r", "version": 1},)"
        R"( "stats": {"x": [1, 2.5, 3]}, "s": "hello"})";
    ReportDiffResult result = diffText(doc, doc);
    EXPECT_TRUE(result.identical());
    EXPECT_EQ(result.diffs.size(), 0u);
    EXPECT_GT(result.fieldsCompared, 0u);
    EXPECT_FALSE(result.truncated);
}

TEST(ReportDiff, NumericDifferenceIsLocatedByDottedPath)
{
    ReportDiffResult result =
        diffText(R"({"a": {"b": [1, 2, 3]}})",
                 R"({"a": {"b": [1, 9, 3]}})");
    ASSERT_EQ(result.diffs.size(), 1u);
    EXPECT_EQ(result.diffs[0].path, "a.b[1]");
    std::string text = formatDiff(result);
    EXPECT_NE(text.find("a.b[1]"), std::string::npos);
    EXPECT_NE(text.find("2"), std::string::npos);
    EXPECT_NE(text.find("9"), std::string::npos);
}

TEST(ReportDiff, RelativeToleranceBoundary)
{
    ReportDiffOptions loose;
    loose.tolRel = 0.05;
    // |100 - 105| = 5 <= 0.05 * max(100, 105) = 5.25.
    EXPECT_TRUE(
        diffText(R"({"v": 100})", R"({"v": 105})", loose).identical());

    ReportDiffOptions tight;
    tight.tolRel = 0.04;
    EXPECT_FALSE(
        diffText(R"({"v": 100})", R"({"v": 105})", tight).identical());
}

TEST(ReportDiff, AbsoluteToleranceBoundary)
{
    ReportDiffOptions options;
    options.tolAbs = 0.5;
    EXPECT_TRUE(diffText(R"({"v": 1.0})", R"({"v": 1.4})", options)
                    .identical());
    EXPECT_FALSE(diffText(R"({"v": 1.0})", R"({"v": 1.6})", options)
                     .identical());
}

TEST(ReportDiff, MinRatioGateIsOneSided)
{
    ReportDiffOptions gate;
    gate.minRatio = 0.85;
    // Regressions below the ratio fail...
    EXPECT_FALSE(diffText(R"({"perf": 100})", R"({"perf": 80})", gate)
                     .identical());
    // ...staying above it passes...
    EXPECT_TRUE(diffText(R"({"perf": 100})", R"({"perf": 90})", gate)
                    .identical());
    // ...and improvements of any size pass (the one-sided contract
    // that a symmetric tolerance cannot express).
    EXPECT_TRUE(diffText(R"({"perf": 100})", R"({"perf": 300})", gate)
                    .identical());
}

TEST(ReportDiff, MinRatioOverridesSymmetricTolerances)
{
    ReportDiffOptions options;
    options.minRatio = 0.99;
    options.tolRel = 10.0; // would accept anything on its own
    EXPECT_FALSE(diffText(R"({"perf": 100})", R"({"perf": 50})",
                          options)
                     .identical());
}

TEST(ReportDiff, IgnoreMatchesKeyPathAndPrefix)
{
    const std::string a =
        R"({"meta": {"seconds": 1}, "x": {"seconds": 2, "keep": 3}})";
    const std::string b =
        R"({"meta": {"seconds": 9}, "x": {"seconds": 9, "keep": 3}})";

    // Bare key name: matched wherever the member appears.
    ReportDiffOptions by_key;
    by_key.ignore = {"seconds"};
    EXPECT_TRUE(diffText(a, b, by_key).identical());

    // Full dotted path: only that one field.
    ReportDiffOptions by_path;
    by_path.ignore = {"meta.seconds"};
    ReportDiffResult result = diffText(a, b, by_path);
    ASSERT_EQ(result.diffs.size(), 1u);
    EXPECT_EQ(result.diffs[0].path, "x.seconds");

    // Prefix: the whole subtree under it.
    ReportDiffOptions by_prefix;
    by_prefix.ignore = {"meta", "x"};
    EXPECT_TRUE(diffText(a, b, by_prefix).identical());

    // An ignored field no longer counts as compared.
    EXPECT_LT(diffText(a, b, by_key).fieldsCompared,
              diffText(a, a).fieldsCompared);
}

TEST(ReportDiff, MissingMembersReportedBothWays)
{
    ReportDiffResult gone =
        diffText(R"({"x": 1, "y": 2})", R"({"x": 1})");
    ASSERT_EQ(gone.diffs.size(), 1u);
    EXPECT_EQ(gone.diffs[0].path, "y");

    ReportDiffResult added =
        diffText(R"({"x": 1})", R"({"x": 1, "z": 3})");
    ASSERT_EQ(added.diffs.size(), 1u);
    EXPECT_EQ(added.diffs[0].path, "z");
}

// A repeated key pairs by occurrence: the k-th "k" of A with the k-th
// of B. An occurrence the other side lacks is missing there.
TEST(ReportDiff, RepeatedKeysPairByOccurrence)
{
    const std::string two = R"({"k": 1, "x": true, "k": "two"})";
    EXPECT_TRUE(diffText(two, two).identical());

    const std::string three = R"({"k": 1, "x": true, "k": "two", "k": 3})";
    ReportDiffResult added = diffText(two, three);
    ASSERT_EQ(added.diffs.size(), 1u);
    EXPECT_EQ(added.diffs[0].path, "k");
    EXPECT_EQ(added.diffs[0].reason, "missing in A");
    EXPECT_EQ(added.diffs[0].b, "3");

    ReportDiffResult gone = diffText(three, two);
    ASSERT_EQ(gone.diffs.size(), 1u);
    EXPECT_EQ(gone.diffs[0].reason, "missing in B");
    EXPECT_EQ(gone.diffs[0].a, "3");

    ReportDiffResult changed =
        diffText(two, R"({"k": 1, "x": true, "k": "2"})");
    ASSERT_EQ(changed.diffs.size(), 1u);
    EXPECT_EQ(changed.diffs[0].reason, "value");
    EXPECT_EQ(changed.diffs[0].a, "\"two\"");
}

TEST(ReportDiff, TypeMismatchIsOneDiffNotARecursion)
{
    ReportDiffResult result =
        diffText(R"({"x": {"deep": [1, 2, 3]}})", R"({"x": 7})");
    ASSERT_EQ(result.diffs.size(), 1u);
    EXPECT_EQ(result.diffs[0].path, "x");
}

TEST(ReportDiff, ArrayLengthMismatch)
{
    ReportDiffResult result =
        diffText(R"({"v": [1, 2, 3]})", R"({"v": [1, 2]})");
    ASSERT_EQ(result.diffs.size(), 1u);
    EXPECT_EQ(result.diffs[0].path, "v");
}

TEST(ReportDiff, SchemaSubtreeIsAlwaysExact)
{
    ReportDiffOptions options;
    options.tolRel = 0.5; // generous everywhere else
    ReportDiffResult result = diffText(
        R"({"schema": {"version": 1}, "v": 100})",
        R"({"schema": {"version": 1.2}, "v": 120})", options);
    ASSERT_EQ(result.diffs.size(), 1u);
    EXPECT_EQ(result.diffs[0].path, "schema.version");
}

TEST(ReportDiff, TruncatesAtMaxDiffs)
{
    ReportDiffOptions options;
    options.maxDiffs = 2;
    ReportDiffResult result = diffText(
        R"({"v": [1, 2, 3, 4, 5]})", R"({"v": [9, 9, 9, 9, 9]})",
        options);
    EXPECT_EQ(result.diffs.size(), 2u);
    EXPECT_TRUE(result.truncated);
    EXPECT_FALSE(result.identical());
    std::string text = formatDiff(result);
    EXPECT_NE(text.find("truncated"), std::string::npos);
}

TEST(ReportDiff, AddIgnoreSpecsSplitsCommaLists)
{
    // `--ignore a,b --ignore c` and `--ignore a --ignore b --ignore c`
    // must produce the same ignore list.
    ReportDiffOptions comma;
    addIgnoreSpecs(comma, {"profile,parallel.worker_busy_s", "meta"});
    ReportDiffOptions repeated;
    addIgnoreSpecs(repeated,
                   {"profile", "parallel.worker_busy_s", "meta"});
    EXPECT_EQ(comma.ignore, repeated.ignore);
    ASSERT_EQ(comma.ignore.size(), 3u);
    EXPECT_EQ(comma.ignore[1], "parallel.worker_busy_s");

    // Empty fragments from stray commas are dropped, not matched.
    ReportDiffOptions stray;
    addIgnoreSpecs(stray, {",seconds,", ""});
    EXPECT_EQ(stray.ignore, std::vector<std::string>{"seconds"});

    // Specs append to (not replace) an existing list.
    ReportDiffOptions appended;
    appended.ignore = {"keep"};
    addIgnoreSpecs(appended, {"seconds"});
    ASSERT_EQ(appended.ignore.size(), 2u);
    EXPECT_EQ(appended.ignore[0], "keep");

    // And the split list actually drives the diff.
    const std::string a =
        R"({"meta": {"seconds": 1}, "x": {"seconds": 2, "keep": 3}})";
    const std::string b =
        R"({"meta": {"seconds": 9}, "x": {"seconds": 9, "keep": 3}})";
    ReportDiffOptions both;
    addIgnoreSpecs(both, {"meta.seconds,x.seconds"});
    EXPECT_TRUE(diffText(a, b, both).identical());
}

TEST(ReportDiff, StringAndBoolLeavesCompareExactly)
{
    EXPECT_FALSE(diffText(R"({"s": "a"})", R"({"s": "b"})")
                     .identical());
    EXPECT_FALSE(diffText(R"({"b": true})", R"({"b": false})")
                     .identical());
    ReportDiffOptions options;
    options.tolRel = 100.0; // tolerances never apply to non-numbers
    EXPECT_FALSE(
        diffText(R"({"s": "a"})", R"({"s": "b"})", options)
            .identical());
}

} // namespace
} // namespace telemetry
} // namespace gables
