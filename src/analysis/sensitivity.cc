#include "analysis/sensitivity.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>

#include "core/evaluator.h"
#include "telemetry/span.h"
#include "util/logging.h"

namespace gables {

double
Sensitivity::elasticity(double value,
                        const std::function<double(double)> &perf_at,
                        double rel_step)
{
    GABLES_ASSERT(value > 0.0, "elasticity needs a positive parameter");
    GABLES_ASSERT(rel_step > 0.0 && rel_step < 1.0, "bad probe step");
    double up = value * (1.0 + rel_step);
    double down = value / (1.0 + rel_step);
    double perf_up = perf_at(up);
    double perf_down = perf_at(down);
    GABLES_ASSERT(perf_up > 0.0 && perf_down > 0.0,
                  "performance must stay positive during probing");
    return (std::log(perf_up) - std::log(perf_down)) /
           (std::log(up) - std::log(down));
}

namespace {

/** One elasticity probe: which model term, and its base value. */
struct Probe {
    enum class Kind { Ppeak, Bpeak, Acceleration, IpBandwidth,
                      Intensity };
    std::string name;
    Kind kind;
    size_t ip;
    double value;
};

void
applyProbeLane(GablesPack<kGridWidth> &pack, size_t lane, const Probe &p,
               double v)
{
    switch (p.kind) {
    case Probe::Kind::Ppeak:
        pack.setPpeak(lane, v);
        break;
    case Probe::Kind::Bpeak:
        pack.setBpeak(lane, v);
        break;
    case Probe::Kind::Acceleration:
        pack.setAcceleration(lane, p.ip, v);
        break;
    case Probe::Kind::IpBandwidth:
        pack.setIpBandwidth(lane, p.ip, v);
        break;
    case Probe::Kind::Intensity:
        pack.setIntensity(lane, p.ip, v);
        break;
    }
}

} // namespace

std::vector<SensitivityEntry>
Sensitivity::analyze(const SocSpec &soc, const Usecase &usecase,
                     double rel_step)
{
    GABLES_SPAN("sensitivity.analyze");
    GablesPack<1> base(soc, usecase);

    std::vector<Probe> probes;
    probes.reserve(2 * soc.numIps() + 1 + usecase.numIps());
    probes.push_back({"Ppeak", Probe::Kind::Ppeak, 0, soc.ppeak()});
    probes.push_back({"Bpeak", Probe::Kind::Bpeak, 0, soc.bpeak()});
    for (size_t i = 1; i < soc.numIps(); ++i)
        probes.push_back({"A[" + std::to_string(i) + "]",
                          Probe::Kind::Acceleration, i,
                          soc.ip(i).acceleration});
    for (size_t i = 0; i < soc.numIps(); ++i)
        probes.push_back({"B[" + std::to_string(i) + "]",
                          Probe::Kind::IpBandwidth, i,
                          soc.ip(i).bandwidth});
    for (size_t i = 0; i < usecase.numIps(); ++i) {
        const IpWork &w = usecase.at(i);
        if (w.fraction == 0.0 || std::isinf(w.intensity))
            continue;
        probes.push_back({"I[" + std::to_string(i) + "]",
                          Probe::Kind::Intensity, i, w.intensity});
    }

    // Two lanes per probe (the up and down perturbations), W/2 probes
    // per pass. Each lane is the base state plus one mutation, and
    // the arithmetic below is the expression elasticity() computes.
    constexpr size_t kPerPack = kGridWidth / 2;
    std::vector<SensitivityEntry> entries;
    entries.reserve(probes.size());
    GablesPack<kGridWidth> pack(base);
    std::array<double, kPerPack> ups{};
    std::array<double, kPerPack> downs{};
    for (size_t p0 = 0; p0 < probes.size(); p0 += kPerPack) {
        const size_t cnt = std::min(kPerPack, probes.size() - p0);
        if (p0 != 0)
            pack.broadcast(base); // clear the previous pass's lanes
        for (size_t j = 0; j < cnt; ++j) {
            const Probe &p = probes[p0 + j];
            GABLES_ASSERT(p.value > 0.0,
                          "elasticity needs a positive parameter");
            GABLES_ASSERT(rel_step > 0.0 && rel_step < 1.0,
                          "bad probe step");
            ups[j] = p.value * (1.0 + rel_step);
            downs[j] = p.value / (1.0 + rel_step);
            applyProbeLane(pack, 2 * j, p, ups[j]);
            applyProbeLane(pack, 2 * j + 1, p, downs[j]);
        }
        pack.run(2 * cnt);
        for (size_t j = 0; j < cnt; ++j) {
            double perf_up = pack.attainable(2 * j);
            double perf_down = pack.attainable(2 * j + 1);
            GABLES_ASSERT(perf_up > 0.0 && perf_down > 0.0,
                          "performance must stay positive during "
                          "probing");
            entries.push_back(
                {probes[p0 + j].name,
                 (std::log(perf_up) - std::log(perf_down)) /
                     (std::log(ups[j]) - std::log(downs[j]))});
        }
    }
    return entries;
}

} // namespace gables
