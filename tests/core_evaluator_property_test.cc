/**
 * @file
 * Property tests for GablesPack: over randomized SoCs, usecases, and
 * mutation sequences, the single-point pack (W = 1) must stay
 * bit-identical to a from-scratch GablesModel::evaluate() of the
 * equivalent (SocSpec, Usecase) pair — including idle (fi == 0) IPs
 * and infinite-intensity (no-traffic) IPs.
 *
 * The same harness pins the grid width: every lane of a
 * GablesPack<kGridWidth> must stay bit-identical, full result
 * included, to a GablesPack<1> fed the same mutation sequence, across
 * random mutations and the degenerate cases (idle IPs, infinite
 * intensity, denormal-small bandwidth) mixed into one pack.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/gables.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gables {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** Mutable mirror of a (SocSpec, Usecase) pair that can be rebuilt
 * from scratch for the legacy path after every mutation. */
struct Pair {
    double ppeak = 0.0;
    double bpeak = 0.0;
    std::vector<IpSpec> ips;
    std::vector<IpWork> work;

    SocSpec soc() const { return SocSpec("fuzz", ppeak, bpeak, ips); }
    Usecase usecase() const { return Usecase("fuzz", work); }
};

Pair
randomPair(Rng &rng)
{
    Pair p;
    size_t n = static_cast<size_t>(rng.uniformInt(1, 8));
    p.ppeak = rng.logUniform(1e9, 1e12);
    p.bpeak = rng.logUniform(1e9, 1e11);
    p.ips.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        IpSpec ip;
        ip.name = "ip" + std::to_string(i);
        ip.acceleration = i == 0 ? 1.0 : rng.logUniform(0.1, 100.0);
        ip.bandwidth = rng.logUniform(1e8, 1e11);
        p.ips.push_back(ip);
    }
    std::vector<double> f = rng.simplex(n);
    p.work.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        IpWork w;
        w.fraction = f[i];
        // ~1 in 6 active lanes is pure compute (infinite intensity);
        // intensities otherwise span five orders of magnitude.
        w.intensity = rng.uniformInt(0, 5) == 0
                          ? kInf
                          : rng.logUniform(0.01, 1000.0);
        p.work.push_back(w);
    }
    // Idle roughly a third of the lanes (but never all of them),
    // handing their mass to the first surviving lane so the fractions
    // still sum to the simplex total bit-for-bit.
    for (size_t i = n; i-- > 1;) {
        if (rng.uniformInt(0, 2) == 0 && p.work[i].fraction > 0.0) {
            double moved = p.work[i].fraction;
            p.work[i].fraction = 0.0;
            p.work[i].intensity = 1.0;
            p.work[0].fraction += moved;
        }
    }
    return p;
}

void
expectBitIdentical(const GablesResult &a, const GablesResult &b,
                   uint64_t seed, int step)
{
    ASSERT_EQ(a.ips.size(), b.ips.size());
    EXPECT_EQ(bits(a.attainable), bits(b.attainable))
        << "seed " << seed << " step " << step;
    EXPECT_EQ(bits(a.memoryTime), bits(b.memoryTime))
        << "seed " << seed << " step " << step;
    EXPECT_EQ(bits(a.memoryPerfBound), bits(b.memoryPerfBound))
        << "seed " << seed << " step " << step;
    EXPECT_EQ(bits(a.averageIntensity), bits(b.averageIntensity))
        << "seed " << seed << " step " << step;
    EXPECT_EQ(bits(a.totalDataBytes), bits(b.totalDataBytes))
        << "seed " << seed << " step " << step;
    EXPECT_EQ(a.bottleneckIp, b.bottleneckIp)
        << "seed " << seed << " step " << step;
    EXPECT_EQ(a.bottleneck, b.bottleneck)
        << "seed " << seed << " step " << step;
    for (size_t i = 0; i < a.ips.size(); ++i) {
        EXPECT_EQ(bits(a.ips[i].computeTime), bits(b.ips[i].computeTime))
            << "seed " << seed << " step " << step << " ip " << i;
        EXPECT_EQ(bits(a.ips[i].dataBytes), bits(b.ips[i].dataBytes))
            << "seed " << seed << " step " << step << " ip " << i;
        EXPECT_EQ(bits(a.ips[i].transferTime),
                  bits(b.ips[i].transferTime))
            << "seed " << seed << " step " << step << " ip " << i;
        EXPECT_EQ(bits(a.ips[i].time), bits(b.ips[i].time))
            << "seed " << seed << " step " << step << " ip " << i;
        EXPECT_EQ(bits(a.ips[i].perfBound), bits(b.ips[i].perfBound))
            << "seed " << seed << " step " << step << " ip " << i;
    }
}

TEST(EvaluatorProperty, FreshCompileMatchesLegacy)
{
    for (uint64_t seed = 0; seed < 400; ++seed) {
        Rng rng(seed);
        Pair p = randomPair(rng);
        SocSpec soc = p.soc();
        Usecase u = p.usecase();
        GablesPack<1> ev(soc, u);
        GablesResult legacy = GablesModel::evaluate(soc, u);
        GablesResult fast;
        ev.run();
        ev.evaluate(0, fast);
        expectBitIdentical(fast, legacy, seed, -1);
        EXPECT_EQ(bits(ev.attainable(0)), bits(legacy.attainable))
            << "seed " << seed;
    }
}

TEST(EvaluatorProperty, MutationSequencesMatchRebuild)
{
    GablesResult fast; // reused scratch, as the grid drivers do
    for (uint64_t seed = 1000; seed < 1100; ++seed) {
        Rng rng(seed);
        Pair p = randomPair(rng);
        GablesPack<1> ev(p.soc(), p.usecase());
        const size_t n = p.ips.size();

        for (int step = 0; step < 40; ++step) {
            // Apply one random mutation to both the evaluator and the
            // mirror, then compare against a from-scratch rebuild.
            switch (rng.uniformInt(0, 5)) {
              case 0: {
                p.ppeak = rng.logUniform(1e9, 1e12);
                ev.setPpeak(0, p.ppeak);
                break;
              }
              case 1: {
                p.bpeak = rng.logUniform(1e9, 1e11);
                ev.setBpeak(0, p.bpeak);
                break;
              }
              case 2: {
                if (n == 1)
                    continue;
                size_t i = static_cast<size_t>(
                    rng.uniformInt(1, static_cast<int64_t>(n) - 1));
                p.ips[i].acceleration = rng.logUniform(0.1, 100.0);
                ev.setAcceleration(0, i, p.ips[i].acceleration);
                break;
              }
              case 3: {
                size_t i = static_cast<size_t>(
                    rng.uniformInt(0, static_cast<int64_t>(n) - 1));
                p.ips[i].bandwidth = rng.logUniform(1e8, 1e11);
                ev.setIpBandwidth(0, i, p.ips[i].bandwidth);
                break;
              }
              case 4: {
                size_t i = static_cast<size_t>(
                    rng.uniformInt(0, static_cast<int64_t>(n) - 1));
                if (p.work[i].fraction == 0.0)
                    continue;
                p.work[i].intensity =
                    rng.uniformInt(0, 5) == 0
                        ? kInf
                        : rng.logUniform(0.01, 1000.0);
                ev.setIntensity(0, i, p.work[i].intensity);
                break;
              }
              default: {
                // Move half of lane i's work to lane j; the two-term
                // transfer keeps the fraction sum unchanged modulo
                // rounding the Usecase tolerance absorbs, and both
                // paths see the exact same post-move doubles.
                if (n == 1)
                    continue;
                size_t i = static_cast<size_t>(
                    rng.uniformInt(0, static_cast<int64_t>(n) - 1));
                size_t j = (i + 1) % n;
                double moved = p.work[i].fraction * 0.5;
                p.work[i].fraction -= moved;
                p.work[j].fraction += moved;
                if (p.work[j].fraction > 0.0 &&
                    !(p.work[j].intensity > 0.0))
                    p.work[j].intensity = 1.0;
                ev.setWork(0, i, p.work[i].fraction, p.work[i].intensity);
                ev.setWork(0, j, p.work[j].fraction, p.work[j].intensity);
                break;
              }
            }
            GablesResult legacy =
                GablesModel::evaluate(p.soc(), p.usecase());
            ev.run();
            ev.evaluate(0, fast);
            expectBitIdentical(fast, legacy, seed, step);
            EXPECT_EQ(bits(ev.attainable(0)), bits(legacy.attainable))
                << "seed " << seed << " step " << step;
        }
    }
}

/** Lane @p w of the run grid pack must match the single-point
 * @p mirror fed the same mutations, full result included. */
void
expectLaneMatches(const GablesPack<kGridWidth> &pack, size_t w,
                  GablesPack<1> &mirror, const std::string &where)
{
    mirror.run();
    EXPECT_EQ(bits(pack.attainable(w)), bits(mirror.attainable(0)))
        << where << " lane " << w;
    EXPECT_EQ(pack.bottleneckIp(w), mirror.bottleneckIp(0))
        << where << " lane " << w;
    GablesResult wide, single;
    pack.evaluate(w, wide);
    mirror.evaluate(0, single);
    SCOPED_TRACE(where + " lane " + std::to_string(w));
    expectBitIdentical(wide, single, 0, -1);
}

TEST(EvaluatorProperty, PackMatchesScalarRandomMutations)
{
    constexpr size_t W = kGridWidth;
    for (uint64_t seed = 2000; seed < 2060; ++seed) {
        Rng rng(seed);
        Pair p = randomPair(rng);
        GablesPack<1> base(p.soc(), p.usecase());
        const size_t n = p.ips.size();

        GablesPack<W> pack(base);
        // One single-point mirror per lane.
        std::vector<GablesPack<1>> mirror(W, base);

        for (int round = 0; round < 6; ++round) {
            // A few random mutations per lane, applied identically
            // to the pack lane and its single-point mirror. Lane 0's IP 0
            // fraction stays positive so every lane keeps nonzero
            // critical time.
            for (size_t w = 0; w < W; ++w) {
                int muts = static_cast<int>(rng.uniformInt(0, 3));
                for (int m = 0; m < muts; ++m) {
                    switch (rng.uniformInt(0, 5)) {
                      case 0: {
                        double v = rng.logUniform(1e9, 1e12);
                        pack.setPpeak(w, v);
                        mirror[w].setPpeak(0, v);
                        break;
                      }
                      case 1: {
                        double v = rng.logUniform(1e9, 1e11);
                        pack.setBpeak(w, v);
                        mirror[w].setBpeak(0, v);
                        break;
                      }
                      case 2: {
                        if (n == 1)
                            continue;
                        size_t i = static_cast<size_t>(rng.uniformInt(
                            1, static_cast<int64_t>(n) - 1));
                        double v = rng.logUniform(0.1, 100.0);
                        pack.setAcceleration(w, i, v);
                        mirror[w].setAcceleration(0, i, v);
                        break;
                      }
                      case 3: {
                        size_t i = static_cast<size_t>(rng.uniformInt(
                            0, static_cast<int64_t>(n) - 1));
                        double v = rng.logUniform(1e8, 1e11);
                        pack.setIpBandwidth(w, i, v);
                        mirror[w].setIpBandwidth(0, i, v);
                        break;
                      }
                      case 4: {
                        size_t i = static_cast<size_t>(rng.uniformInt(
                            0, static_cast<int64_t>(n) - 1));
                        double in = rng.uniformInt(0, 5) == 0
                                        ? kInf
                                        : rng.logUniform(0.01, 1000.0);
                        // Idle only the tail IPs so lane time stays
                        // positive (IP 0 keeps its work).
                        double f = i > 0 && rng.uniformInt(0, 3) == 0
                                       ? 0.0
                                       : rng.logUniform(0.01, 1.0);
                        pack.setWork(w, i, f, in);
                        mirror[w].setWork(0, i, f, in);
                        break;
                      }
                      default: {
                        size_t i = static_cast<size_t>(rng.uniformInt(
                            0, static_cast<int64_t>(n) - 1));
                        if (mirror[w].fraction(0, i) == 0.0)
                            continue;
                        double in = rng.uniformInt(0, 5) == 0
                                        ? kInf
                                        : rng.logUniform(0.01, 1000.0);
                        pack.setIntensity(w, i, in);
                        mirror[w].setIntensity(0, i, in);
                        break;
                      }
                    }
                }
            }
            pack.run(W);
            for (size_t w = 0; w < W; ++w)
                expectLaneMatches(pack, w, mirror[w],
                                  "seed " + std::to_string(seed) +
                                      " round " + std::to_string(round));
        }
    }
}

TEST(EvaluatorProperty, PackDegenerateLanesMatchScalar)
{
    constexpr size_t W = kGridWidth;
    // A 4-IP pair with work spread across all IPs.
    Pair p;
    p.ppeak = 1e11;
    p.bpeak = 2e10;
    for (size_t i = 0; i < 4; ++i) {
        IpSpec ip;
        ip.name = "ip" + std::to_string(i);
        ip.acceleration = i == 0 ? 1.0 : static_cast<double>(i) * 4.0;
        ip.bandwidth = 5e9 * static_cast<double>(i + 1);
        p.ips.push_back(ip);
        IpWork w;
        w.fraction = 0.25;
        w.intensity = 2.0 * static_cast<double>(i + 1);
        p.work.push_back(w);
    }
    GablesPack<1> base(p.soc(), p.usecase());
    GablesPack<W> pack(base);
    std::vector<GablesPack<1>> mirror(W, base);

    // The constructors reject a literal zero bandwidth on both paths,
    // so the closest reachable degenerate is the smallest positive
    // denormal — its transfer time overflows to inf identically in
    // both paths.
    const double kTinyBw = std::numeric_limits<double>::denorm_min();

    auto mutate = [&](size_t lane, auto &&fn) { fn(lane); };
    // Lane 0: pure compute — every IP at infinite intensity.
    mutate(0, [&](size_t w) {
        for (size_t i = 0; i < 4; ++i) {
            pack.setIntensity(w, i, kInf);
            mirror[w].setIntensity(0, i, kInf);
        }
    });
    // Lane 1: idle tail IPs (fi = 0), mass moved to IP 0.
    mutate(1, [&](size_t w) {
        pack.setFraction(w, 0, 1.0);
        mirror[w].setFraction(0, 0, 1.0);
        for (size_t i = 1; i < 4; ++i) {
            pack.setFraction(w, i, 0.0);
            mirror[w].setFraction(0, i, 0.0);
        }
    });
    // Lane 2: denormal-small link bandwidth (transfer time -> inf).
    mutate(2, [&](size_t w) {
        pack.setIpBandwidth(w, 2, kTinyBw);
        mirror[w].setIpBandwidth(0, 2, kTinyBw);
    });
    // Lane 3: all three degeneracies mixed in one lane.
    mutate(3, [&](size_t w) {
        pack.setWork(w, 1, 0.0, 1.0);
        mirror[w].setWork(0, 1, 0.0, 1.0);
        pack.setIntensity(w, 3, kInf);
        mirror[w].setIntensity(0, 3, kInf);
        pack.setIpBandwidth(w, 0, kTinyBw);
        mirror[w].setIpBandwidth(0, 0, kTinyBw);
    });
    // Lane 4: idle IP whose leftover intensity is *invalid for work*
    // (zero) — legal while idle; the packed select must still pin its
    // dataBytes to +0 like the model's branch.
    if (W > 4) {
        pack.setWork(4, 3, 0.0, 0.0);
        mirror[4].setWork(0, 3, 0.0, 0.0);
        pack.setFraction(4, 0, 0.5);
        mirror[4].setFraction(0, 0, 0.5);
    }
    // Remaining lanes stay broadcast copies of the base.

    pack.run(W);
    for (size_t w = 0; w < W; ++w)
        expectLaneMatches(pack, w, mirror[w], "degenerate");

    // Mutators reject invalid values with the single-point checks.
    EXPECT_THROW(pack.setFraction(0, 1, -0.5), FatalError);
    EXPECT_THROW(pack.setIpBandwidth(0, 1, 0.0), FatalError);
    EXPECT_THROW(pack.setWork(0, 1, 0.5, 0.0), FatalError);
    EXPECT_THROW(pack.setAcceleration(0, 0, 2.0), FatalError);
}

TEST(EvaluatorProperty, PackBulkRowsMatchPerLaneMutators)
{
    constexpr size_t W = kGridWidth;
    for (uint64_t seed = 3000; seed < 3040; ++seed) {
        Rng rng(seed);
        Pair p = randomPair(rng);
        GablesPack<1> base(p.soc(), p.usecase());
        const size_t n = p.ips.size();

        // Two packs fed the same values: one through the bulk row
        // setters (the sweep drivers' staging path), one through the
        // per-lane mutators already proven against W = 1.
        GablesPack<kGridWidth> bulk(base);
        GablesPack<kGridWidth> lane(base);

        for (int round = 0; round < 8; ++round) {
            // Partial-count staging exercises the grid-tail case.
            const size_t cnt =
                static_cast<size_t>(rng.uniformInt(1, W));
            double vals[W];
            switch (rng.uniformInt(0, 4)) {
              case 0: {
                for (size_t w = 0; w < cnt; ++w)
                    vals[w] = rng.uniform(0.0, 1.0);
                size_t i = static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int64_t>(n) - 1));
                // Keep the work-needs-intensity invariant: staging a
                // positive fraction over a lane whose leftover
                // intensity is invalid must throw identically, so
                // give every lane a valid intensity first.
                for (size_t w = 0; w < W; ++w) {
                    bulk.setIntensity(w, i, 2.0);
                    lane.setIntensity(w, i, 2.0);
                }
                bulk.setFractionRow(i, vals, cnt);
                for (size_t w = 0; w < cnt; ++w)
                    lane.setFraction(w, i, vals[w]);
                break;
              }
              case 1: {
                for (size_t w = 0; w < cnt; ++w)
                    vals[w] = rng.uniformInt(0, 5) == 0
                                  ? kInf
                                  : rng.logUniform(0.01, 1000.0);
                size_t i = static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int64_t>(n) - 1));
                bulk.setIntensityRow(i, vals, cnt);
                for (size_t w = 0; w < cnt; ++w)
                    lane.setIntensity(w, i, vals[w]);
                break;
              }
              case 2: {
                if (n == 1)
                    continue;
                for (size_t w = 0; w < cnt; ++w)
                    vals[w] = rng.logUniform(0.1, 100.0);
                size_t i = static_cast<size_t>(rng.uniformInt(
                    1, static_cast<int64_t>(n) - 1));
                bulk.setAccelerationRow(i, vals, cnt);
                for (size_t w = 0; w < cnt; ++w)
                    lane.setAcceleration(w, i, vals[w]);
                break;
              }
              case 3: {
                for (size_t w = 0; w < cnt; ++w)
                    vals[w] = rng.logUniform(1e8, 1e11);
                size_t i = static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int64_t>(n) - 1));
                bulk.setIpBandwidthRow(i, vals, cnt);
                for (size_t w = 0; w < cnt; ++w)
                    lane.setIpBandwidth(w, i, vals[w]);
                break;
              }
              default: {
                for (size_t w = 0; w < cnt; ++w)
                    vals[w] = rng.logUniform(1e9, 1e11);
                bulk.setBpeakLanes(vals, cnt);
                for (size_t w = 0; w < cnt; ++w)
                    lane.setBpeak(w, vals[w]);
                break;
              }
            }
            bulk.run(W);
            lane.run(W);
            for (size_t w = 0; w < W; ++w) {
                EXPECT_EQ(bits(bulk.attainable(w)),
                          bits(lane.attainable(w)))
                    << "seed " << seed << " round " << round
                    << " lane " << w;
                EXPECT_EQ(bulk.bottleneckIp(w), lane.bottleneckIp(w))
                    << "seed " << seed << " round " << round
                    << " lane " << w;
            }
        }
    }
}

TEST(EvaluatorProperty, PackBulkRowsValidateLikePerLane)
{
    Rng rng(42);
    Pair p = randomPair(rng);
    // Guarantee IP 0 carries work so intensity validation can fire.
    p.work[0].fraction = std::max(p.work[0].fraction, 0.5);
    p.work[0].intensity = 2.0;
    GablesPack<1> base(p.soc(), p.usecase());
    GablesPack<kGridWidth> pack(base);
    constexpr size_t W = kGridWidth;

    double bad_frac[W];
    double bad_pos[W];
    for (size_t w = 0; w < W; ++w) {
        bad_frac[w] = 0.25;
        bad_pos[w] = 1.0;
    }
    bad_frac[W - 1] = -0.5;
    bad_pos[W - 1] = 0.0;
    EXPECT_THROW(pack.setFractionRow(0, bad_frac, W), FatalError);
    EXPECT_THROW(pack.setIntensityRow(0, bad_pos, W), FatalError);
    EXPECT_THROW(pack.setIpBandwidthRow(0, bad_pos, W), FatalError);
    EXPECT_THROW(pack.setBpeakLanes(bad_pos, W), FatalError);
    if (p.ips.size() > 1) {
        EXPECT_THROW(pack.setAccelerationRow(1, bad_pos, W),
                     FatalError);
    }
    // A0 must stay 1 through the bulk path too.
    double two[W];
    for (size_t w = 0; w < W; ++w)
        two[w] = 2.0;
    EXPECT_THROW(pack.setAccelerationRow(0, two, W), FatalError);
    // Count past the pack width is rejected, not clamped.
    EXPECT_THROW(pack.setBpeakLanes(two, W + 1), FatalError);
}

TEST(EvaluatorProperty, PackParamSumsMatchCostModelOrder)
{
    for (uint64_t seed = 4000; seed < 4010; ++seed) {
        Rng rng(seed);
        Pair p = randomPair(rng);
        GablesPack<1> base(p.soc(), p.usecase());
        GablesPack<kGridWidth> pack(base);
        constexpr size_t W = kGridWidth;
        const size_t n = p.ips.size();

        // Give every lane its own hardware point.
        std::vector<std::vector<IpSpec>> perLane(W, p.ips);
        for (size_t w = 0; w < W; ++w) {
            for (size_t i = 0; i < n; ++i) {
                double b = rng.logUniform(1e8, 1e11);
                pack.setIpBandwidth(w, i, b);
                perLane[w][i].bandwidth = b;
                if (i > 0) {
                    double a = rng.logUniform(0.1, 100.0);
                    pack.setAcceleration(w, i, a);
                    perLane[w][i].acceleration = a;
                }
            }
        }

        double sum_a[W];
        double sum_b[W];
        pack.paramSums(sum_a, sum_b);
        for (size_t w = 0; w < W; ++w) {
            // The scalar accumulation order of CostModel::cost().
            double accel = 0.0;
            double ip_bw = 0.0;
            for (const IpSpec &ip : perLane[w]) {
                accel += ip.acceleration;
                ip_bw += ip.bandwidth;
            }
            EXPECT_EQ(bits(sum_a[w]), bits(accel))
                << "seed " << seed << " lane " << w;
            EXPECT_EQ(bits(sum_b[w]), bits(ip_bw))
                << "seed " << seed << " lane " << w;
        }
    }
}

TEST(EvaluatorProperty, PackCachedReductionsSurviveBpeakOnlyRuns)
{
    Rng rng(11);
    Pair p = randomPair(rng);
    GablesPack<1> base(p.soc(), p.usecase());
    GablesPack<kGridWidth> pack(base);
    std::vector<GablesPack<1>> mirror(kGridWidth, base);
    constexpr size_t W = kGridWidth;

    // Alternate row-dirtying rounds with Bpeak-only rounds (which
    // leave every row clean and must reuse the cached reductions).
    for (int round = 0; round < 10; ++round) {
        if (round % 2 == 0) {
            for (size_t w = 0; w < W; ++w) {
                double b = rng.logUniform(1e9, 1e11);
                pack.setBpeak(w, b);
                mirror[w].setBpeak(0, b);
            }
        } else {
            for (size_t w = 0; w < W; ++w) {
                double in = rng.logUniform(0.01, 1000.0);
                pack.setIntensity(w, 0, in);
                mirror[w].setIntensity(0, 0, in);
            }
        }
        pack.run(W);
        for (size_t w = 0; w < W; ++w)
            expectLaneMatches(pack, w, mirror[w],
                              "round " + std::to_string(round));
    }
}

TEST(EvaluatorProperty, PackBroadcastPreservesEvalCount)
{
    Rng rng(7);
    Pair p = randomPair(rng);
    GablesPack<1> base(p.soc(), p.usecase());
    GablesPack<kGridWidth> pack(base);
    pack.run(3);
    EXPECT_EQ(pack.evalCount(), 3u);
    pack.broadcast(base);
    pack.run(kGridWidth);
    EXPECT_EQ(pack.evalCount(), 3u + kGridWidth);
}

} // namespace
} // namespace gables
