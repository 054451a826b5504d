#include "analysis/provisioner.h"

#include <cmath>
#include <functional>
#include <vector>

#include "telemetry/span.h"
#include "util/logging.h"

namespace gables {

bool
Provisioner::meetsAll(const SocSpec &soc,
                      const std::vector<Requirement> &requirements)
{
    for (const Requirement &req : requirements) {
        if (GablesModel::evaluate(soc, req.usecase).attainable <
            req.minPerf * (1.0 - 1e-12))
            return false;
    }
    return true;
}

namespace {

/**
 * The smallest scale in (0, 1] of a monotone knob that still meets
 * every requirement, by bisection in log space.
 */
double
minimalScale(const std::function<bool(double)> &ok)
{
    GABLES_ASSERT(ok(1.0), "knob must start feasible");
    double lo = 1e-6;
    if (ok(lo))
        return lo;
    double hi = 1.0;
    while (hi / lo > 1.0 + Provisioner::kTolerance) {
        double mid = std::sqrt(lo * hi);
        if (ok(mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

} // namespace

ProvisionedDesign
Provisioner::minimize(const SocSpec &start,
                      const std::vector<Requirement> &requirements)
{
    GABLES_SPAN("provision.minimize");
    if (requirements.empty())
        fatal("provisioner needs at least one requirement");
    for (const Requirement &req : requirements) {
        if (!(req.minPerf > 0.0))
            fatal("requirement '" + req.usecase.name() +
                  "' needs a positive target");
        if (req.usecase.numIps() != start.numIps())
            fatal("requirement '" + req.usecase.name() +
                  "' does not match the design's IP count");
    }

    ProvisionedDesign result(start);
    if (!meetsAll(start, requirements)) {
        // Infeasible starting point: report and echo the input.
        result.feasible = false;
        for (const Requirement &req : requirements)
            result.achieved.push_back(
                GablesModel::evaluate(start, req.usecase).attainable);
        return result;
    }
    result.feasible = true;

    // The knobs, shrunk in this order each iteration: Bpeak, each
    // link, then each acceleration (A0 is pinned to 1 by the model).
    std::vector<Param> knobs = {Param::bpeak()};
    for (size_t i = 0; i < start.numIps(); ++i)
        knobs.push_back(Param::ipBandwidth(i));
    for (size_t i = 1; i < start.numIps(); ++i)
        knobs.push_back(Param::acceleration(i));
    // Param::read() takes the pair; only hardware inputs are read.
    const Usecase &any = requirements.front().usecase;

    SocSpec current = start;
    for (int iter = 0; iter < kMaxIterations; ++iter) {
        SocSpec before = current;
        for (const Param &p : knobs) {
            double base = p.read(current, any);
            double floor_scale = p.kind == Param::Kind::Acceleration
                                     ? kMinAcceleration / base
                                     : 0.0;
            double scale = minimalScale(
                [&](double s) {
                    if (s < floor_scale)
                        return false;
                    return meetsAll(current.with(p, base * s),
                                    requirements);
                });
            current = current.with(p, base * scale);
        }

        result.iterations = iter + 1;
        // Fixpoint: no knob moved by more than the tolerance.
        bool converged = true;
        for (const Param &p : knobs)
            converged = converged &&
                        std::fabs(p.read(current, any) /
                                      p.read(before, any) -
                                  1.0) < kTolerance;
        if (converged)
            break;
    }

    result.soc = current;
    for (const Requirement &req : requirements)
        result.achieved.push_back(
            GablesModel::evaluate(current, req.usecase).attainable);
    GABLES_ASSERT(meetsAll(current, requirements),
                  "provisioner produced an infeasible design");
    return result;
}

} // namespace gables
