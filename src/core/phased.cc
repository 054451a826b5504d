#include "core/phased.h"

#include <cmath>

#include "util/logging.h"

namespace gables {

namespace {

constexpr double kShareSumTol = 1e-9;

} // namespace

PhasedUsecase::PhasedUsecase(std::string name, std::vector<Phase> phases)
    : name_(std::move(name)), phases_(std::move(phases))
{
    if (phases_.empty())
        fatal("phased usecase '" + name_ + "': needs at least one phase");
    double sum = 0.0;
    for (const Phase &p : phases_) {
        if (!(p.workShare >= 0.0))
            fatal("phased usecase '" + name_ + "': phase '" + p.name +
                  "' has negative work share");
        sum += p.workShare;
    }
    if (std::fabs(sum - 1.0) > kShareSumTol)
        fatal("phased usecase '" + name_ + "': phase work shares sum to " +
              std::to_string(sum) + ", expected 1");
}

PhasedResult
PhasedUsecase::evaluate(const SocSpec &soc) const
{
    PhasedResult result;
    result.phasePerf.reserve(phases_.size());

    double total_time = 0.0;
    std::vector<double> times;
    times.reserve(phases_.size());
    for (const Phase &p : phases_) {
        double perf;
        if (p.mode == PhaseMode::Concurrent)
            perf = GablesModel::evaluate(soc, p.usecase).attainable;
        else
            perf = SerializedModel::evaluate(soc, p.usecase).attainable;
        result.phasePerf.push_back(perf);
        double t = p.workShare > 0.0 ? p.workShare / perf : 0.0;
        times.push_back(t);
        total_time += t;
    }
    GABLES_ASSERT(total_time > 0.0, "phased usecase has zero total time");
    result.attainable = 1.0 / total_time;

    result.timeShare.reserve(times.size());
    double worst = -1.0;
    for (size_t i = 0; i < times.size(); ++i) {
        double share = times[i] / total_time;
        result.timeShare.push_back(share);
        if (times[i] > worst) {
            worst = times[i];
            result.dominantPhase = static_cast<int>(i);
        }
    }
    return result;
}

} // namespace gables
