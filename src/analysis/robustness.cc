#include "analysis/robustness.h"

#include <algorithm>
#include <cmath>

#include "core/evaluator.h"
#include "telemetry/span.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gables {

RobustnessReport
Robustness::analyze(const SocSpec &soc, const Usecase &usecase,
                    const Options &options)
{
    GABLES_SPAN("robust.analyze");
    if (options.samples < 1)
        fatal("robustness analysis needs at least one sample");
    if (!(options.intensityJitter >= 1.0) ||
        !(options.fractionJitter >= 1.0))
        fatal("jitter factors must be >= 1");

    // The nominal point is compiled once; every Monte-Carlo sample
    // then overwrites the per-IP work terms of a lane of a grid pack
    // broadcast from it, instead of constructing a Usecase.
    GablesPack<1> nominal(soc, usecase);
    nominal.run();

    RobustnessReport report;
    report.samples = options.samples;
    report.nominal = nominal.attainable(0);

    Rng rng(options.seed);
    std::vector<double> perf;
    perf.reserve(options.samples);
    std::map<int, int> bottleneck_counts;
    int meets = 0;

    const size_t n = usecase.numIps();
    std::vector<double> fractions(n, 0.0);
    std::vector<double> intensities(n, 1.0);

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
            double f_scale =
                options.fractionJitter == 1.0
                    ? 1.0
                    : rng.logUniform(1.0 / options.fractionJitter,
                                     options.fractionJitter);
            double i_scale =
                options.intensityJitter == 1.0
                    ? 1.0
                    : rng.logUniform(1.0 / options.intensityJitter,
                                     options.intensityJitter);
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
        bottleneck_counts[bottleneck_ip]++;
        if (options.target > 0.0 && attainable >= options.target)
            ++meets;
    };

    // W samples per pass. Every lane's work terms are fully
    // overwritten per sample (all n IPs), so lanes never leak state
    // between passes.
    constexpr size_t W = kGridWidth;
    GablesPack<W> pack(nominal);
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
    for (const auto &[ip, count] : bottleneck_counts)
        report.bottleneckShare[ip] =
            static_cast<double>(count) / options.samples;
    return report;
}

} // namespace gables
