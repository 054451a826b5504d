#include "core/logca.h"

#include <cmath>
#include <limits>

#include "util/logging.h"

namespace gables {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

LogCAModel::LogCAModel(const Params &params) : params_(params)
{
    if (!(params.latency >= 0.0))
        fatal("LogCA latency must be >= 0");
    if (!(params.overhead >= 0.0))
        fatal("LogCA overhead must be >= 0");
    if (!(params.computePerItem > 0.0))
        fatal("LogCA compute-per-item must be > 0");
    if (!(params.acceleration > 0.0))
        fatal("LogCA acceleration must be > 0");
    if (!(params.beta > 0.0))
        fatal("LogCA beta must be > 0");
    if (params.eta != 0.0 && params.eta != 1.0)
        fatal("LogCA eta must be 0 or 1");
}

double
LogCAModel::hostTime(double g) const
{
    GABLES_ASSERT(g > 0.0, "granularity must be > 0");
    return params_.computePerItem * std::pow(g, params_.beta);
}

double
LogCAModel::accelTime(double g) const
{
    GABLES_ASSERT(g > 0.0, "granularity must be > 0");
    double latency_term =
        params_.eta == 0.0 ? params_.latency : params_.latency * g;
    return params_.overhead + latency_term +
           hostTime(g) / params_.acceleration;
}

double
LogCAModel::speedup(double g) const
{
    return hostTime(g) / accelTime(g);
}

double
LogCAModel::asymptoticSpeedup() const
{
    if (params_.eta == 0.0 || params_.latency == 0.0)
        return params_.acceleration;
    if (params_.beta > 1.0)
        return params_.acceleration; // compute outgrows transfer
    if (params_.beta < 1.0)
        return 0.0; // transfer outgrows compute: offload dies
    // beta == 1: T/Ta -> C / (L + C/A).
    return params_.computePerItem /
           (params_.latency + params_.computePerItem /
                                  params_.acceleration);
}

double
LogCAModel::breakEvenGranularity() const
{
    if (speedup(1e-9) >= 1.0)
        return 0.0;
    if (asymptoticSpeedup() <= 1.0 && speedup(1e18) < 1.0)
        return kInf;
    // speedup(g) is monotone nondecreasing for our parameterization
    // (overheads amortize with g); bisect in log space.
    double lo = 1e-9;
    double hi = 1e18;
    for (int iter = 0; iter < 200; ++iter) {
        double mid = std::sqrt(lo * hi);
        if (speedup(mid) >= 1.0)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

} // namespace gables
