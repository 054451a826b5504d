/**
 * @file
 * Tests for Monte-Carlo robustness analysis.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "analysis/robustness.h"
#include "core/evaluator.h"
#include "soc/catalog.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gables {
namespace {

TEST(Robustness, DeterministicForFixedSeed)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    Robustness::Options opts;
    opts.samples = 200;
    opts.seed = 42;
    RobustnessReport a = Robustness::analyze(soc, u, opts);
    RobustnessReport b = Robustness::analyze(soc, u, opts);
    EXPECT_DOUBLE_EQ(a.mean, b.mean);
    EXPECT_DOUBLE_EQ(a.p5, b.p5);
    EXPECT_DOUBLE_EQ(a.p95, b.p95);
}

TEST(Robustness, QuantilesOrdered)
{
    SocSpec soc = SocCatalog::snapdragon835();
    Usecase u("u", {IpWork{0.2, 4.0}, IpWork{0.7, 8.0},
                    IpWork{0.1, 1.0}});
    RobustnessReport r = Robustness::analyze(soc, u);
    EXPECT_LE(r.p5, r.p50);
    EXPECT_LE(r.p50, r.p95);
    EXPECT_GT(r.p5, 0.0);
    EXPECT_EQ(r.samples, 1000);
}

TEST(Robustness, BalancedDesignIsFragile)
{
    // Figure 6d sits at the intersection of all three rooflines:
    // most perturbations knock it off the peak, so the median and
    // mean fall visibly below nominal and the downside tail is deep
    // (the cost of perfect balance). The upside tail is real too —
    // jitter can land on a better work split — but small.
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    RobustnessReport r = Robustness::analyze(soc, u);
    EXPECT_DOUBLE_EQ(r.nominal, 160e9);
    EXPECT_LT(r.p50, r.nominal * 0.9);
    EXPECT_LT(r.mean, r.nominal * 0.9);
    EXPECT_LT(r.p5, r.nominal * 0.6);  // deep downside
    EXPECT_LT(r.p95, r.nominal * 1.5); // shallow upside
}

TEST(Robustness, TargetProbability)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    Robustness::Options opts;
    opts.samples = 500;
    opts.target = 1e9; // trivially met
    EXPECT_DOUBLE_EQ(
        Robustness::analyze(soc, u, opts).meetsTargetProbability,
        1.0);
    opts.target = 500e9; // unreachable under any bounded jitter
    EXPECT_DOUBLE_EQ(
        Robustness::analyze(soc, u, opts).meetsTargetProbability,
        0.0);
    opts.target = 100e9; // sometimes met
    double p = Robustness::analyze(soc, u, opts)
                   .meetsTargetProbability;
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
}

TEST(Robustness, BottleneckSharesSumToOne)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    RobustnessReport r = Robustness::analyze(soc, u);
    double sum = 0.0;
    for (const auto &[ip, share] : r.bottleneckShare) {
        EXPECT_GE(ip, -1);
        EXPECT_LE(ip, 1);
        sum += share;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    // Figure 6b is deep in memory-bound territory: the memory
    // interface dominates even under jitter.
    EXPECT_GT(r.bottleneckShare.at(-1), 0.5);
}

TEST(Robustness, IdleIpsStayIdle)
{
    SocSpec soc = SocCatalog::snapdragon835();
    Usecase u("u", {IpWork{1.0, 8.0}, IpWork{0.0, 1.0},
                    IpWork{0.0, 1.0}});
    RobustnessReport r = Robustness::analyze(soc, u);
    // With only the CPU active, the bottleneck is always IP 0 or
    // memory, never the idle GPU/DSP.
    for (const auto &[ip, share] : r.bottleneckShare)
        EXPECT_TRUE(ip == 0 || ip == -1) << "ip " << ip;
}

/**
 * The straightforward Monte-Carlo loop analyze() must reproduce bit
 * for bit: two Rng::logUniform draws per active IP and sample (the
 * fraction's, then the intensity's), a std::map of bottleneck
 * counts, and a std::sort of every sample before the sorted-order
 * sum and the interpolated quantiles.
 */
RobustnessReport
referenceAnalyze(const SocSpec &soc, const Usecase &usecase,
                 const Robustness::Options &options)
{
    RobustnessReport report;
    report.samples = options.samples;
    report.nominal = GablesModel::evaluate(soc, usecase).attainable;

    Rng rng(options.seed);
    std::vector<double> perf;
    std::map<int, int> counts;
    int meets = 0;
    const size_t n = usecase.numIps();
    std::vector<double> fractions(n), intensities(n);
    constexpr size_t W = kGridWidth;
    GablesPack<W> pack(soc, usecase);
    const size_t samples = static_cast<size_t>(options.samples);
    for (size_t s0 = 0; s0 < samples; s0 += W) {
        const size_t cnt = std::min(W, samples - s0);
        for (size_t w = 0; w < cnt; ++w) {
            double sum = 0.0;
            for (size_t i = 0; i < n; ++i) {
                const IpWork &work = usecase.at(i);
                if (work.fraction == 0.0) {
                    fractions[i] = 0.0;
                    intensities[i] = 1.0;
                    continue;
                }
                const double fj = Robustness::kFractionJitter;
                const double ij = Robustness::kIntensityJitter;
                double f_scale = rng.logUniform(1.0 / fj, fj);
                double i_scale = rng.logUniform(1.0 / ij, ij);
                intensities[i] = std::isinf(work.intensity)
                                     ? work.intensity
                                     : work.intensity * i_scale;
                fractions[i] = work.fraction * f_scale;
                sum += fractions[i];
            }
            for (size_t i = 0; i < n; ++i)
                pack.setWork(w, i, fractions[i] / sum, intensities[i]);
        }
        pack.run(cnt);
        for (size_t w = 0; w < cnt; ++w) {
            double p = pack.attainable(w);
            perf.push_back(p);
            counts[pack.bottleneckIp(w)]++;
            if (options.target > 0.0 && p >= options.target)
                ++meets;
        }
    }
    std::sort(perf.begin(), perf.end());
    auto quantile = [&](double q) {
        double pos = q * (perf.size() - 1);
        size_t lo = static_cast<size_t>(pos);
        size_t hi = std::min(lo + 1, perf.size() - 1);
        double t = pos - static_cast<double>(lo);
        return perf[lo] * (1.0 - t) + perf[hi] * t;
    };
    double total = 0.0;
    for (double p : perf)
        total += p;
    report.mean = total / perf.size();
    report.p5 = quantile(0.05);
    report.p50 = quantile(0.50);
    report.p95 = quantile(0.95);
    report.meetsTargetProbability =
        options.target > 0.0
            ? static_cast<double>(meets) / options.samples
            : 1.0;
    for (const auto &[ip, count] : counts)
        report.bottleneckShare[ip] =
            static_cast<double>(count) / options.samples;
    return report;
}

void
expectSameReport(const RobustnessReport &got,
                 const RobustnessReport &want)
{
    EXPECT_EQ(got.samples, want.samples);
    EXPECT_EQ(got.nominal, want.nominal);
    EXPECT_EQ(got.mean, want.mean);
    EXPECT_EQ(got.p5, want.p5);
    EXPECT_EQ(got.p50, want.p50);
    EXPECT_EQ(got.p95, want.p95);
    EXPECT_EQ(got.meetsTargetProbability, want.meetsTargetProbability);
    EXPECT_EQ(got.bottleneckShare, want.bottleneckShare);
}

struct OracleCase {
    const char *name;
    SocSpec soc;
    Usecase usecase;
};

std::vector<OracleCase>
oracleCases()
{
    const double inf = std::numeric_limits<double>::infinity();
    return {
        {"paper-balanced", SocCatalog::paperTwoIpBalanced(),
         Usecase::twoIp("6d", 0.75, 8.0, 8.0)},
        {"sd835", SocCatalog::snapdragon835(),
         Usecase("u", {IpWork{0.2, 4.0}, IpWork{0.7, 8.0},
                       IpWork{0.1, 1.0}})},
        // An idle IP (no draws) and a pure-compute IP (infinite
        // intensity is never scaled).
        {"four-ip",
         SocSpec("four", 10e9, 30e9,
                 {IpSpec{"CPU", 1.0, 10e9}, IpSpec{"GPU", 8.0, 40e9},
                  IpSpec{"DSP", 2.0, 8e9}, IpSpec{"NPU", 16.0, 20e9}}),
         Usecase("u", {IpWork{0.3, 2.0}, IpWork{0.0, 1.0},
                       IpWork{0.3, inf}, IpWork{0.4, 0.5}})},
    };
}

double
nominalOf(const OracleCase &c)
{
    return GablesModel::evaluate(c.soc, c.usecase).attainable;
}

TEST(Robustness, MatchesReferenceLoopBitForBit)
{
    for (const OracleCase &c : oracleCases()) {
        const double nominal = nominalOf(c);
        for (uint64_t seed : {1ull, 42ull, 987654321ull}) {
            for (int samples : {1, 7, 8, 9, 1000}) {
                for (double target : {0.0, 0.9 * nominal}) {
                    Robustness::Options opts;
                    opts.samples = samples;
                    opts.seed = seed;
                    opts.target = target;
                    SCOPED_TRACE(::testing::Message()
                                 << c.name << " seed " << seed
                                 << " samples " << samples << " target "
                                 << target);
                    expectSameReport(
                        Robustness::analyze(c.soc, c.usecase, opts),
                        referenceAnalyze(c.soc, c.usecase, opts));
                }
            }
        }
    }
}

TEST(Robustness, MatchesReferenceLoopOnALargeRun)
{
    for (const OracleCase &c : oracleCases()) {
        Robustness::Options opts;
        opts.samples = 100003;
        opts.seed = 7;
        opts.target = 0.5 * nominalOf(c);
        SCOPED_TRACE(c.name);
        expectSameReport(Robustness::analyze(c.soc, c.usecase, opts),
                         referenceAnalyze(c.soc, c.usecase, opts));
    }
}

TEST(Robustness, InvalidOptionsRejected)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    Robustness::Options opts;
    opts.samples = 0;
    EXPECT_THROW(Robustness::analyze(soc, u, opts), FatalError);
}

} // namespace
} // namespace gables
