// Tests of the end-to-end benchmark's helpers: seed-to-input
// determinism, percentile math, failure counting and digests.

#include "harness.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>

#include <gtest/gtest.h>

namespace e2e {
namespace {

TEST(SeededRng, SameSeedSameSequence)
{
    SeededRng a(42), b(42), c(43);
    bool differs = false;
    for (int i = 0; i < 100; ++i) {
        uint64_t x = a.next();
        EXPECT_EQ(x, b.next());
        differs = differs || x != c.next();
    }
    EXPECT_TRUE(differs);
}

TEST(SeededRng, RangesHold)
{
    SeededRng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        double l = rng.logUniform(0.25, 16.0);
        EXPECT_GE(l, 0.25);
        EXPECT_LT(l, 16.0);
        EXPECT_LT(rng.below(5), 5u);
    }
}

TEST(Inputs, SweepInputsFollowTheSeed)
{
    SweepInputs a = makeSweepInputs(11), b = makeSweepInputs(11);
    SweepInputs c = makeSweepInputs(12);
    EXPECT_EQ(a.i0, b.i0);
    EXPECT_EQ(a.i1, b.i1);
    EXPECT_EQ(a.sampleRows, b.sampleRows);
    EXPECT_NE(a.i0, c.i0);
    EXPECT_EQ(sweepArgv(a, "r.json"), sweepArgv(b, "r.json"));
    ASSERT_EQ(a.sampleRows.size(), 16u);
    EXPECT_EQ(a.sampleRows.front(), 0u);
    EXPECT_EQ(a.sampleRows.back(), static_cast<uint64_t>(kSweepPoints - 1));
}

TEST(Inputs, SweepArgvRoundTripsIntensities)
{
    SweepInputs in = makeSweepInputs(5);
    std::vector<std::string> argv = sweepArgv(in, "out.json");
    ASSERT_EQ(argv.size(), 14u);
    EXPECT_EQ(std::stod(argv[5]), in.i0);
    EXPECT_EQ(std::stod(argv[7]), in.i1);
    EXPECT_EQ(argv.back(), "out.json");
}

TEST(Inputs, ComputeCommandsFollowTheSeed)
{
    EXPECT_EQ(computeCommands(3), computeCommands(3));
    EXPECT_NE(computeCommands(3)[0], computeCommands(4)[0]);
    EXPECT_EQ(computeCommands(3)[1], computeCommands(4)[1]);
    EXPECT_EQ(computeCommands(3).size(), 5u);
}

const std::vector<std::pair<std::string, std::vector<std::string>>>
    kConfigs = {{"a.ini", {"u1", "u2"}}, {"b.ini", {"v"}}};

TEST(ServeMix, SameSeedSameLines)
{
    MixShape shape;
    ServeMix a = makeServeMix(9, shape, kConfigs);
    ServeMix b = makeServeMix(9, shape, kConfigs);
    ServeMix c = makeServeMix(10, shape, kConfigs);
    ASSERT_EQ(a.requests.size(), shape.total());
    ASSERT_EQ(b.requests.size(), shape.total());
    bool differs = false;
    for (size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].line, b.requests[i].line);
        differs = differs || a.requests[i].line != c.requests[i].line;
    }
    EXPECT_TRUE(differs);
}

TEST(ServeMix, ExactCountsAndShape)
{
    MixShape shape;
    ServeMix mix = makeServeMix(1, shape, kConfigs);
    std::map<ReqKind, size_t> count;
    size_t hot = 0, errors = 0;
    for (const ServeRequest &r : mix.requests) {
        ++count[r.kind];
        if (r.kind == ReqKind::Eval && r.pair < static_cast<int>(shape.hotPairs))
            ++hot;
        if (!r.expectError.empty())
            ++errors;
        if (r.kind == ReqKind::Sweep)
            EXPECT_EQ(r.values.size(), shape.sweepValues);
        if (r.kind == ReqKind::Explore) {
            EXPECT_EQ(r.knobs.size(), 4u);
            EXPECT_EQ(r.gridPoints, 18u * 18u * 18u * 18u);
        }
    }
    EXPECT_EQ(count[ReqKind::Eval], shape.evalsInline);
    EXPECT_EQ(count[ReqKind::EvalConfig], shape.evalsConfig);
    EXPECT_EQ(count[ReqKind::Sweep], shape.sweeps);
    EXPECT_EQ(count[ReqKind::Explore], shape.explores);
    EXPECT_EQ(count[ReqKind::Malformed], shape.malformed);
    EXPECT_EQ(errors, shape.malformed);
    EXPECT_EQ(hot, 1620u); // 90% of 1800
    EXPECT_LT(shape.hotPairs, 64u); // fits the default cache
}

TEST(Percentile, InterpolatesLinearly)
{
    EXPECT_DOUBLE_EQ(percentile({5.0}, 0.99), 5.0);
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    std::vector<double> v;
    for (int i = 0; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.995), 99.5);
}

TEST(Percentile, RejectsBadInput)
{
    EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(Tally, CountsFailuresAgainstAttempts)
{
    Tally t;
    EXPECT_EQ(t.errorRate(), 0.0);
    EXPECT_TRUE(t.correct());
    t.operation(true, "a");
    t.operation(false, "b");
    t.operation(true, "c");
    t.operation(false, "d");
    EXPECT_EQ(t.attempted(), 4u);
    EXPECT_EQ(t.failed(), 2u);
    EXPECT_DOUBLE_EQ(t.errorRate(), 0.5);
    EXPECT_FALSE(t.correct());
    ASSERT_EQ(t.messages().size(), 2u);
    EXPECT_EQ(t.messages()[0], "operation failed: b");
}

TEST(Tally, FailedCheckIsNotAnOperation)
{
    Tally t;
    t.operation(true, "op");
    t.check(true, "fine");
    t.check(false, "bytes differ");
    EXPECT_EQ(t.attempted(), 1u);
    EXPECT_EQ(t.failed(), 0u);
    EXPECT_EQ(t.checksFailed(), 1u);
    EXPECT_FALSE(t.correct());
}

TEST(Tally, KeepsOnlyTheFirstMessages)
{
    Tally t;
    for (int i = 0; i < 20; ++i)
        t.operation(false, std::to_string(i));
    EXPECT_EQ(t.failed(), 20u);
    EXPECT_EQ(t.messages().size(), Tally::kKeptMessages);
}

TEST(Responses, MatchOkAndErrorKinds)
{
    // The envelope is spaced, the compact result and error are not.
    std::string ok = "{\"id\": 1, \"ok\": true, \"result\": "
                     "{\"attainable_ops_per_sec\":1.25e+10}}";
    std::string bad = "{\"id\": 2, \"ok\": false, \"error\": {\"code\":"
                      "2,\"kind\":\"bad-request\",\"message\":\"x\"}}";
    EXPECT_TRUE(responseMatches(ok, ""));
    EXPECT_FALSE(responseMatches(ok, "bad-request"));
    EXPECT_TRUE(responseMatches(bad, "bad-request"));
    EXPECT_FALSE(responseMatches(bad, "config"));
    EXPECT_FALSE(responseMatches(bad, ""));
    double v = 0.0;
    ASSERT_TRUE(numberAfter(ok, "attainable_ops_per_sec", &v));
    EXPECT_EQ(v, 1.25e10);
    EXPECT_FALSE(numberAfter(bad, "attainable_ops_per_sec", &v));
}

TEST(ReferenceWork, IsFixed)
{
    EXPECT_EQ(referenceWork(), referenceWork());
}

TEST(Digest, IndependentOfChunking)
{
    DigestBuf whole, pieces;
    std::ostream a(&whole), b(&pieces);
    a << "line one\nline two\n";
    b << "line ";
    b << 'o' << "ne\nline";
    b << " two\n";
    EXPECT_EQ(whole.digest(), pieces.digest());
    EXPECT_EQ(whole.digest().bytes, 18u);
}

TEST(Digest, KeepsRequestedLines)
{
    DigestBuf buf({1, 3});
    std::ostream out(&buf);
    out << "zero\none\ntw" << "o\nthr" << "ee\nfour\n";
    ASSERT_EQ(buf.keptLines().size(), 2u);
    EXPECT_EQ(buf.keptLines()[0], "one");
    EXPECT_EQ(buf.keptLines()[1], "three");
}

TEST(Digest, JsonFileSkipsVolatileMembers)
{
    const std::string a = "e2e_digest_a.json", b = "e2e_digest_b.json";
    std::ofstream(a) << "{\n  \"stats\": {\n    \"n\": 1,\n"
                        "    \"busy\": {\n      \"sum\": 0.5\n    }\n"
                        "  },\n  \"profile\": {\n    \"wall_s\": 3\n  }\n}\n";
    std::ofstream(b) << "{\n  \"stats\": {\n    \"n\": 1,\n"
                        "    \"busy\": {\n      \"sum\": 0.75\n    }\n"
                        "  }\n}\n";
    Digest da = digestJsonFile(a, {"busy", "profile"});
    Digest db = digestJsonFile(b, {"busy", "profile"});
    EXPECT_EQ(da, db);
    EXPECT_NE(digestJsonFile(a, {}), digestJsonFile(b, {}));
    std::remove(a.c_str());
    std::remove(b.c_str());
    EXPECT_THROW(digestJsonFile(a, {}), std::runtime_error);
}

} // namespace
} // namespace e2e
