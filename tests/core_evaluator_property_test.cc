/**
 * @file
 * Property tests for GablesPack: over randomized SoCs, usecases, and
 * mutation sequences, the single-point pack (W = 1) must report the
 * attainable performance (bit for bit) and the bottleneck IP of a
 * from-scratch GablesModel::evaluate() of the equivalent (SocSpec,
 * Usecase) pair — including idle (fi == 0) IPs and
 * infinite-intensity (no-traffic) IPs.
 *
 * The same harness pins the grid width: every lane of a
 * GablesPack<kGridWidth> must match a GablesPack<1> fed the same
 * mutation sequence, across random mutations and the degenerate cases
 * (idle IPs, infinite intensity, denormal-small bandwidth) mixed into
 * one pack.
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

    /** Set input @p p to @p v (hardware inputs through
     * SocSpec::with(), which checks them). */
    void set(Param p, double v)
    {
        if (p.kind == Param::Kind::Fraction) {
            work[p.ip].fraction = v;
        } else if (p.kind == Param::Kind::Intensity) {
            work[p.ip].intensity = v;
        } else {
            SocSpec s = soc().with(p, v);
            ppeak = s.ppeak();
            bpeak = s.bpeak();
            ips = s.ips();
        }
    }
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

/** Lane @p w of the run @p pack reports the oracle's attainable
 * performance (bit for bit) and bottleneck IP. */
void
expectMatchesOracle(const GablesPack<1> &pack, const GablesResult &want,
                    uint64_t seed, int step)
{
    EXPECT_EQ(bits(pack.attainable(0)), bits(want.attainable))
        << "seed " << seed << " step " << step;
    EXPECT_EQ(pack.bottleneckIp(0), want.bottleneckIp)
        << "seed " << seed << " step " << step;
}

/** @return A random input of an n-IP pair: any kind, any IP but A0
 * (pinned to 1). */
Param
randomParam(Rng &rng, size_t n)
{
    const auto kind = static_cast<Param::Kind>(rng.uniformInt(0, 5));
    const int64_t lo = kind == Param::Kind::Acceleration ? 1 : 0;
    if (n == 1 && lo == 1)
        return Param::bpeak();
    Param p{kind, 0};
    if (p.perIp())
        p.ip = static_cast<size_t>(
            rng.uniformInt(lo, static_cast<int64_t>(n) - 1));
    return p;
}

/** @return A valid value of @p p from the ranges randomPair() draws
 * (fractions in [0, 1]; one intensity in six infinite). */
double
randomValue(Rng &rng, Param p)
{
    switch (p.kind) {
      case Param::Kind::Ppeak:
        return rng.logUniform(1e9, 1e12);
      case Param::Kind::Bpeak:
        return rng.logUniform(1e9, 1e11);
      case Param::Kind::Acceleration:
        return rng.logUniform(0.1, 100.0);
      case Param::Kind::IpBandwidth:
        return rng.logUniform(1e8, 1e11);
      case Param::Kind::Fraction:
        return rng.uniform(0.0, 1.0);
      case Param::Kind::Intensity:
        return rng.uniformInt(0, 5) == 0 ? kInf
                                         : rng.logUniform(0.01, 1000.0);
    }
    return 0.0;
}

TEST(EvaluatorProperty, FreshCompileMatchesLegacy)
{
    for (uint64_t seed = 0; seed < 400; ++seed) {
        Rng rng(seed);
        Pair p = randomPair(rng);
        SocSpec soc = p.soc();
        Usecase u = p.usecase();
        GablesPack<1> ev(soc, u);
        ev.run();
        expectMatchesOracle(ev, GablesModel::evaluate(soc, u), seed, -1);
    }
}

TEST(EvaluatorProperty, MutationSequencesMatchRebuild)
{
    for (uint64_t seed = 1000; seed < 1100; ++seed) {
        Rng rng(seed);
        Pair p = randomPair(rng);
        GablesPack<1> ev(p.soc(), p.usecase());
        const size_t n = p.ips.size();

        for (int step = 0; step < 40; ++step) {
            // Apply one random mutation to both the evaluator and the
            // mirror, then compare against a from-scratch rebuild.
            const Param q = randomParam(rng, n);
            if (q.kind != Param::Kind::Fraction) {
                const double v = randomValue(rng, q);
                p.set(q, v);
                ev.set(0, q, v);
            } else {
                // Move half of lane i's work to lane j; the two-term
                // transfer keeps the fraction sum unchanged modulo
                // rounding the Usecase tolerance absorbs, and both
                // paths see the exact same post-move doubles.
                if (n == 1)
                    continue;
                size_t i = q.ip;
                size_t j = (i + 1) % n;
                double moved = p.work[i].fraction * 0.5;
                p.work[i].fraction -= moved;
                p.work[j].fraction += moved;
                if (p.work[j].fraction > 0.0 &&
                    !(p.work[j].intensity > 0.0))
                    p.work[j].intensity = 1.0;
                ev.setWork(0, i, p.work[i].fraction, p.work[i].intensity);
                ev.setWork(0, j, p.work[j].fraction, p.work[j].intensity);
            }
            ev.run();
            expectMatchesOracle(
                ev, GablesModel::evaluate(p.soc(), p.usecase()), seed,
                step);
        }
    }
}

/** Lane @p w of the run grid pack must match the single-point
 * @p mirror fed the same mutations. */
void
expectLaneMatches(const GablesPack<kGridWidth> &pack, size_t w,
                  GablesPack<1> &mirror, const std::string &where)
{
    mirror.run();
    EXPECT_EQ(bits(pack.attainable(w)), bits(mirror.attainable(0)))
        << where << " lane " << w;
    EXPECT_EQ(pack.bottleneckIp(w), mirror.bottleneckIp(0))
        << where << " lane " << w;
}

TEST(EvaluatorProperty, PackMatchesScalarRandomMutations)
{
    constexpr size_t W = kGridWidth;
    for (uint64_t seed = 2000; seed < 2060; ++seed) {
        Rng rng(seed);
        Pair p = randomPair(rng);
        GablesPack<1> base(p.soc(), p.usecase());
        const size_t n = p.ips.size();

        GablesPack<W> pack(p.soc(), p.usecase());
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
                    const Param q = randomParam(rng, n);
                    if (q.kind != Param::Kind::Fraction) {
                        const double v = randomValue(rng, q);
                        pack.set(w, q, v);
                        mirror[w].set(0, q, v);
                        continue;
                    }
                    double in = rng.uniformInt(0, 5) == 0
                                    ? kInf
                                    : rng.logUniform(0.01, 1000.0);
                    // Idle only the tail IPs so lane time stays
                    // positive (IP 0 keeps its work).
                    double f = q.ip > 0 && rng.uniformInt(0, 3) == 0
                                   ? 0.0
                                   : rng.logUniform(0.01, 1.0);
                    pack.setWork(w, q.ip, f, in);
                    mirror[w].setWork(0, q.ip, f, in);
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
    GablesPack<W> pack(p.soc(), p.usecase());
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
            pack.set(w, Param::intensity(i), kInf);
            mirror[w].set(0, Param::intensity(i), kInf);
        }
    });
    // Lane 1: idle tail IPs (fi = 0), mass moved to IP 0.
    mutate(1, [&](size_t w) {
        pack.set(w, Param::fraction(0), 1.0);
        mirror[w].set(0, Param::fraction(0), 1.0);
        for (size_t i = 1; i < 4; ++i) {
            pack.set(w, Param::fraction(i), 0.0);
            mirror[w].set(0, Param::fraction(i), 0.0);
        }
    });
    // Lane 2: denormal-small link bandwidth (transfer time -> inf).
    mutate(2, [&](size_t w) {
        pack.set(w, Param::ipBandwidth(2), kTinyBw);
        mirror[w].set(0, Param::ipBandwidth(2), kTinyBw);
    });
    // Lane 3: all three degeneracies mixed in one lane.
    mutate(3, [&](size_t w) {
        pack.setWork(w, 1, 0.0, 1.0);
        mirror[w].setWork(0, 1, 0.0, 1.0);
        pack.set(w, Param::intensity(3), kInf);
        mirror[w].set(0, Param::intensity(3), kInf);
        pack.set(w, Param::ipBandwidth(0), kTinyBw);
        mirror[w].set(0, Param::ipBandwidth(0), kTinyBw);
    });
    // Lane 4: idle IP whose leftover intensity is *invalid for work*
    // (zero) — legal while idle; the packed select must still pin its
    // dataBytes to +0 like the model's branch.
    if (W > 4) {
        pack.setWork(4, 3, 0.0, 0.0);
        mirror[4].setWork(0, 3, 0.0, 0.0);
        pack.set(4, Param::fraction(0), 0.5);
        mirror[4].set(0, Param::fraction(0), 0.5);
    }
    // Remaining lanes stay at the compiled base.

    pack.run(W);
    for (size_t w = 0; w < W; ++w)
        expectLaneMatches(pack, w, mirror[w], "degenerate");

    // Mutators reject invalid values with the single-point checks.
    EXPECT_THROW(pack.set(0, Param::fraction(1), -0.5), FatalError);
    EXPECT_THROW(pack.set(0, Param::ipBandwidth(1), 0.0), FatalError);
    EXPECT_THROW(pack.setWork(0, 1, 0.5, 0.0), FatalError);
    EXPECT_THROW(pack.set(0, Param::acceleration(0), 2.0), FatalError);
}

TEST(EvaluatorProperty, PackBulkRowsMatchPerLaneMutators)
{
    constexpr size_t W = kGridWidth;
    for (uint64_t seed = 3000; seed < 3040; ++seed) {
        Rng rng(seed);
        Pair p = randomPair(rng);
        const size_t n = p.ips.size();

        // Two packs fed the same values: one through setLanes() (the
        // sweep drivers' staging path), one through per-lane set(),
        // already proven against W = 1.
        GablesPack<kGridWidth> bulk(p.soc(), p.usecase());
        GablesPack<kGridWidth> lane(p.soc(), p.usecase());

        for (int round = 0; round < 8; ++round) {
            // Partial-count staging exercises the grid-tail case.
            const size_t cnt =
                static_cast<size_t>(rng.uniformInt(1, W));
            const Param param = randomParam(rng, n);
            if (param.kind == Param::Kind::Fraction) {
                // A positive fraction over a leftover invalid
                // intensity would throw; give every lane a valid one.
                for (size_t w = 0; w < W; ++w) {
                    bulk.set(w, Param::intensity(param.ip), 2.0);
                    lane.set(w, Param::intensity(param.ip), 2.0);
                }
            }
            double vals[W];
            for (size_t w = 0; w < cnt; ++w)
                vals[w] = randomValue(rng, param);
            bulk.setLanes(param, vals, cnt);
            for (size_t w = 0; w < cnt; ++w)
                lane.set(w, param, vals[w]);
            bulk.run(W);
            lane.run(W);
            for (size_t w = 0; w < W; ++w) {
                EXPECT_EQ(bits(bulk.attainable(w)),
                          bits(lane.attainable(w)))
                    << "seed " << seed << " round " << round
                    << " lane " << w << " " << param.name();
                EXPECT_EQ(bulk.bottleneckIp(w), lane.bottleneckIp(w))
                    << "seed " << seed << " round " << round
                    << " lane " << w << " " << param.name();
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
    GablesPack<kGridWidth> pack(p.soc(), p.usecase());
    constexpr size_t W = kGridWidth;

    // Per input: a valid value for every lane but the last, which
    // gets a value set() rejects.
    struct Row {
        Param param;
        double good;
        double bad;
    };
    std::vector<Row> rows = {
        {Param::ppeak(), 1e10, 0.0},
        {Param::bpeak(), 1e10, 0.0},
        {Param::acceleration(0), 1.0, 2.0}, // A0 stays 1
        {Param::ipBandwidth(0), 1.0, 0.0},
        {Param::fraction(0), 0.25, -0.5},
        {Param::intensity(0), 1.0, 0.0},
    };
    if (p.ips.size() > 1)
        rows.push_back({Param::acceleration(1), 1.0, 0.0});
    for (const Row &r : rows) {
        double vals[W];
        for (size_t w = 0; w < W; ++w)
            vals[w] = r.good;
        vals[W - 1] = r.bad;
        EXPECT_THROW(pack.set(W - 1, r.param, r.bad), FatalError)
            << r.param.name();
        EXPECT_THROW(pack.setLanes(r.param, vals, W), FatalError)
            << r.param.name();
        // Count past the pack width is rejected, not clamped.
        EXPECT_THROW(pack.setLanes(r.param, vals, W + 1), FatalError)
            << r.param.name();
    }
    // Nothing was stored: every lane still matches the base.
    pack.run(W);
    for (size_t w = 0; w < W; ++w)
        expectLaneMatches(pack, w, base, "after rejections");
}

TEST(EvaluatorProperty, PackParamSumsMatchCostModelOrder)
{
    for (uint64_t seed = 4000; seed < 4010; ++seed) {
        Rng rng(seed);
        Pair p = randomPair(rng);
        GablesPack<kGridWidth> pack(p.soc(), p.usecase());
        constexpr size_t W = kGridWidth;
        const size_t n = p.ips.size();

        // Give every lane its own hardware point.
        std::vector<std::vector<IpSpec>> perLane(W, p.ips);
        for (size_t w = 0; w < W; ++w) {
            for (size_t i = 0; i < n; ++i) {
                double b = rng.logUniform(1e8, 1e11);
                pack.set(w, Param::ipBandwidth(i), b);
                perLane[w][i].bandwidth = b;
                if (i > 0) {
                    double a = rng.logUniform(0.1, 100.0);
                    pack.set(w, Param::acceleration(i), a);
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
    GablesPack<kGridWidth> pack(p.soc(), p.usecase());
    std::vector<GablesPack<1>> mirror(kGridWidth, base);
    constexpr size_t W = kGridWidth;

    // Alternate row-dirtying rounds with Bpeak-only rounds (which
    // leave every row clean and must reuse the cached reductions).
    for (int round = 0; round < 10; ++round) {
        if (round % 2 == 0) {
            for (size_t w = 0; w < W; ++w) {
                double b = rng.logUniform(1e9, 1e11);
                pack.set(w, Param::bpeak(), b);
                mirror[w].set(0, Param::bpeak(), b);
            }
        } else {
            for (size_t w = 0; w < W; ++w) {
                double in = rng.logUniform(0.01, 1000.0);
                pack.set(w, Param::intensity(0), in);
                mirror[w].set(0, Param::intensity(0), in);
            }
        }
        pack.run(W);
        for (size_t w = 0; w < W; ++w)
            expectLaneMatches(pack, w, mirror[w],
                              "round " + std::to_string(round));
    }
}

} // namespace
} // namespace gables
