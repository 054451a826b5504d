#include "analysis/sensitivity.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/evaluator.h"
#include "telemetry/span.h"
#include "util/logging.h"

namespace gables {

std::vector<SensitivityEntry>
Sensitivity::analyze(const SocSpec &soc, const Usecase &usecase,
                     double rel_step)
{
    GABLES_SPAN("sensitivity.analyze");
    GablesPack<kGridWidth> pack(soc, usecase);

    std::vector<Param> probes;
    probes.reserve(2 * soc.numIps() + 1 + usecase.numIps());
    probes.push_back(Param::ppeak());
    probes.push_back(Param::bpeak());
    for (size_t i = 1; i < soc.numIps(); ++i)
        probes.push_back(Param::acceleration(i));
    for (size_t i = 0; i < soc.numIps(); ++i)
        probes.push_back(Param::ipBandwidth(i));
    for (size_t i = 0; i < usecase.numIps(); ++i) {
        const IpWork &w = usecase.at(i);
        if (w.fraction == 0.0 || std::isinf(w.intensity))
            continue;
        probes.push_back(Param::intensity(i));
    }

    // Two lanes per probe (the up and down perturbations), W/2 probes
    // per pass. Each lane is the base state plus one mutation, which
    // the pass sets back to the base value once read. With
    // up = v * (1 + step) and down = v / (1 + step), the elasticity
    // is the central difference in log space:
    //   (ln P(up) - ln P(down)) / (ln up - ln down).
    constexpr size_t kPerPack = kGridWidth / 2;
    std::vector<SensitivityEntry> entries;
    entries.reserve(probes.size());
    std::array<double, kPerPack> bases{};
    std::array<double, kPerPack> ups{};
    std::array<double, kPerPack> downs{};
    for (size_t p0 = 0; p0 < probes.size(); p0 += kPerPack) {
        const size_t cnt = std::min(kPerPack, probes.size() - p0);
        for (size_t j = 0; j < cnt; ++j) {
            const Param p = probes[p0 + j];
            bases[j] = p.read(soc, usecase);
            GABLES_ASSERT(bases[j] > 0.0,
                          "elasticity needs a positive parameter");
            GABLES_ASSERT(rel_step > 0.0 && rel_step < 1.0,
                          "bad probe step");
            ups[j] = bases[j] * (1.0 + rel_step);
            downs[j] = bases[j] / (1.0 + rel_step);
            pack.set(2 * j, p, ups[j]);
            pack.set(2 * j + 1, p, downs[j]);
        }
        pack.run(2 * cnt);
        for (size_t j = 0; j < cnt; ++j) {
            const Param p = probes[p0 + j];
            double perf_up = pack.attainable(2 * j);
            double perf_down = pack.attainable(2 * j + 1);
            GABLES_ASSERT(perf_up > 0.0 && perf_down > 0.0,
                          "performance must stay positive during "
                          "probing");
            entries.push_back(
                {p.name(), (std::log(perf_up) - std::log(perf_down)) /
                               (std::log(ups[j]) - std::log(downs[j]))});
            pack.set(2 * j, p, bases[j]);
            pack.set(2 * j + 1, p, bases[j]);
        }
    }
    return entries;
}

} // namespace gables
