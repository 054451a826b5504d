#include "core/multiamdahl.h"

#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace gables {

MultiAmdahlModel::MultiAmdahlModel(std::vector<MultiAmdahlTask> tasks,
                                   double area_budget)
    : tasks_(std::move(tasks)), areaBudget_(area_budget)
{
    if (tasks_.empty())
        fatal("MultiAmdahl needs at least one task");
    if (!(area_budget > 0.0))
        fatal("MultiAmdahl area budget must be > 0");
    double sum = 0.0;
    for (const MultiAmdahlTask &t : tasks_) {
        if (!(t.timeShare >= 0.0))
            fatal("MultiAmdahl task '" + t.name +
                  "' has negative time share");
        if (!(t.efficiency > 0.0))
            fatal("MultiAmdahl task '" + t.name +
                  "' efficiency must be > 0");
        if (!(t.perfExponent > 0.0 && t.perfExponent <= 1.0))
            fatal("MultiAmdahl task '" + t.name +
                  "' exponent must be in (0, 1]");
        sum += t.timeShare;
    }
    if (std::fabs(sum - 1.0) > 1e-9)
        fatal("MultiAmdahl time shares must sum to 1");
}

double
MultiAmdahlModel::timeFor(const std::vector<double> &areas) const
{
    GABLES_ASSERT(areas.size() == tasks_.size(),
                  "allocation size mismatch");
    double time = 0.0;
    for (size_t i = 0; i < tasks_.size(); ++i) {
        const MultiAmdahlTask &t = tasks_[i];
        if (t.timeShare == 0.0)
            continue;
        GABLES_ASSERT(areas[i] > 0.0,
                      "task with work must receive positive area");
        double perf = t.efficiency * std::pow(areas[i], t.perfExponent);
        time += t.timeShare / perf;
    }
    return time;
}

MultiAmdahlResult
MultiAmdahlModel::optimize() const
{
    const size_t n = tasks_.size();
    MultiAmdahlResult result;
    result.areas.assign(n, 0.0);

    // Tasks with zero work get zero area. With the power-law
    // performance curve perf_i(a) = e_i * a^p_i, the KKT condition
    // equates marginal returns:
    //   t_i * p_i / (e_i * a_i^(p_i + 1)) = lambda for all active i.
    // Solve for lambda by bisection on the total-area constraint.
    std::vector<size_t> active;
    for (size_t i = 0; i < n; ++i) {
        if (tasks_[i].timeShare > 0.0)
            active.push_back(i);
    }
    if (active.empty())
        fatal("MultiAmdahl: all tasks have zero work");

    auto area_for_lambda = [&](double lambda, size_t i) {
        const MultiAmdahlTask &t = tasks_[i];
        double num = t.timeShare * t.perfExponent / (t.efficiency * lambda);
        return std::pow(num, 1.0 / (t.perfExponent + 1.0));
    };
    auto total_area = [&](double lambda) {
        double sum = 0.0;
        for (size_t i : active)
            sum += area_for_lambda(lambda, i);
        return sum;
    };

    // Bracket lambda: large lambda -> tiny areas, small -> huge.
    double lo = 1e-30;
    double hi = 1e30;
    // Tighten the bracket multiplicatively first for robustness.
    while (total_area(lo) < areaBudget_ && lo > 1e-300)
        lo *= 0.1;
    while (total_area(hi) > areaBudget_ && hi < 1e300)
        hi *= 10.0;

    for (int iter = 0; iter < 200; ++iter) {
        double mid = std::sqrt(lo * hi); // geometric midpoint
        if (total_area(mid) > areaBudget_)
            lo = mid;
        else
            hi = mid;
    }
    double lambda = std::sqrt(lo * hi);

    double used = 0.0;
    for (size_t i : active) {
        result.areas[i] = area_for_lambda(lambda, i);
        used += result.areas[i];
    }
    // Normalize out residual bisection error so areas sum exactly.
    double scale = areaBudget_ / used;
    for (size_t i : active)
        result.areas[i] *= scale;

    result.time = timeFor(result.areas);
    result.performance = 1.0 / result.time;
    return result;
}

MultiAmdahlModel
multiAmdahlFromGables(const SocSpec &soc, const Usecase &usecase,
                      double area_budget)
{
    checkPair(soc, usecase);

    std::vector<MultiAmdahlTask> tasks;
    tasks.reserve(soc.numIps());
    for (size_t i = 0; i < soc.numIps(); ++i) {
        MultiAmdahlTask t;
        t.name = soc.ip(i).name;
        t.timeShare = usecase.fraction(i);
        // An IP with acceleration Ai is modeled as Ai-times more
        // efficient use of resources at the reference design point.
        t.efficiency = soc.ip(i).acceleration;
        t.perfExponent = 0.5;
        tasks.push_back(std::move(t));
    }
    return MultiAmdahlModel(std::move(tasks), area_budget);
}

} // namespace gables
