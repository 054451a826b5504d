#include "analysis/robustness.h"

#include <algorithm>
#include <cmath>

#include "core/evaluator.h"
#include "telemetry/span.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace gables {

RobustnessReport
Robustness::analyze(const SocSpec &soc, const Usecase &usecase,
                    const Options &options)
{
    GABLES_SPAN("robust.analyze");
    if (options.samples < 1)
        fatal("robustness analysis needs at least one sample");

    // The nominal pair is compiled once into every lane of a grid
    // pack; every Monte-Carlo sample then overwrites the per-IP work
    // terms of one lane, instead of constructing a Usecase.
    constexpr size_t W = kGridWidth;
    GablesPack<W> pack(soc, usecase);
    pack.run(1);

    RobustnessReport report;
    report.samples = options.samples;
    report.nominal = pack.attainable(0);

    Rng rng(options.seed);
    std::vector<double> perf;
    perf.reserve(options.samples);
    int meets = 0;

    const size_t n = usecase.numIps();
    std::vector<double> fractions(n, 0.0);
    std::vector<double> intensities(n, 1.0);
    // Bottleneck counts indexed by IP + 1 (slot 0 is the memory
    // interface, IP -1).
    std::vector<int> bottleneck_counts(n + 1, 0);

    // Each scale factor is log-uniform in [1/x, x], its logs taken
    // once here.
    const LogUniform fraction_scale(1.0 / kFractionJitter,
                                    kFractionJitter);
    const LogUniform intensity_scale(1.0 / kIntensityJitter,
                                     kIntensityJitter);

    // One perturbed sample's work terms, drawn in sample-major,
    // IP-minor order.
    auto drawSample = [&]() {
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const IpWork &w = usecase.at(i);
            if (w.fraction == 0.0) {
                fractions[i] = 0.0;
                intensities[i] = 1.0;
                continue;
            }
            double f_scale = fraction_scale(rng);
            double i_scale = intensity_scale(rng);
            intensities[i] = std::isinf(w.intensity)
                                 ? w.intensity
                                 : w.intensity * i_scale;
            fractions[i] = w.fraction * f_scale;
            sum += fractions[i];
        }
        GABLES_ASSERT(sum > 0.0, "perturbation removed all work");
        return sum;
    };
    auto recordSample = [&](double attainable, int bottleneck_ip) {
        perf.push_back(attainable);
        ++bottleneck_counts[static_cast<size_t>(bottleneck_ip + 1)];
        if (options.target > 0.0 && attainable >= options.target)
            ++meets;
    };

    // W samples per pass. Every lane's work terms are fully
    // overwritten per sample (all n IPs), so lanes never leak state
    // between passes.
    const size_t samples = static_cast<size_t>(options.samples);
    for (size_t s0 = 0; s0 < samples; s0 += W) {
        const size_t cnt = std::min(W, samples - s0);
        for (size_t w = 0; w < cnt; ++w) {
            double sum = drawSample();
            for (size_t i = 0; i < n; ++i)
                pack.setWork(w, i, fractions[i] / sum, intensities[i]);
        }
        pack.run(cnt);
        for (size_t w = 0; w < cnt; ++w)
            recordSample(pack.attainable(w), pack.bottleneckIp(w));
    }

    // Attainable performance is never negative or NaN, so the radix
    // sort yields std::sort's exact sequence, and the sorted-order
    // sum below keeps its bits.
    sortNonNegative(perf);
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
    for (size_t slot = 0; slot < bottleneck_counts.size(); ++slot) {
        if (bottleneck_counts[slot] != 0)
            report.bottleneckShare[static_cast<int>(slot) - 1] =
                static_cast<double>(bottleneck_counts[slot]) /
                options.samples;
    }
    return report;
}

} // namespace gables
