#include "analysis/balance.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace gables {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

BalanceReport
Balance::report(const SocSpec &soc, const Usecase &usecase)
{
    GablesResult r = GablesModel::evaluate(soc, usecase);
    BalanceReport report;
    report.attainable = r.attainable;
    report.ipSlack.reserve(r.ips.size());
    double max_slack = 0.0;
    for (const IpTiming &t : r.ips) {
        double slack =
            std::isinf(t.perfBound) ? kInf
                                    : t.perfBound / r.attainable - 1.0;
        report.ipSlack.push_back(slack);
        if (!std::isinf(slack))
            max_slack = std::max(max_slack, slack);
    }
    report.memorySlack = std::isinf(r.memoryPerfBound)
                             ? kInf
                             : r.memoryPerfBound / r.attainable - 1.0;
    if (!std::isinf(report.memorySlack))
        max_slack = std::max(max_slack, report.memorySlack);
    report.maxSlack = max_slack;
    return report;
}

double
Balance::sufficientBpeak(const SocSpec &soc, const Usecase &usecase)
{
    GablesResult r = GablesModel::evaluate(soc, usecase);
    if (r.totalDataBytes == 0.0)
        return 0.0;
    // Performance when memory is not the constraint: the max over
    // IP-side times only.
    double ip_time = 0.0;
    for (const IpTiming &t : r.ips)
        ip_time = std::max(ip_time, t.time);
    GABLES_ASSERT(ip_time > 0.0, "usecase with data but no IP time");
    double perf_no_memory = 1.0 / ip_time;
    return r.totalDataBytes * perf_no_memory;
}

double
Balance::sufficientIpBandwidth(const SocSpec &soc, const Usecase &usecase,
                               size_t ip)
{
    GablesResult r = GablesModel::evaluate(soc, usecase);
    const IpTiming &t = r.ips.at(ip);
    if (t.dataBytes == 0.0)
        return 0.0;
    // The IP's transfer must not take longer than the binding time of
    // all other resources (including its own compute).
    double other_time = std::max(t.computeTime, r.memoryTime);
    for (size_t i = 0; i < r.ips.size(); ++i) {
        if (i != ip)
            other_time = std::max(other_time, r.ips[i].time);
    }
    GABLES_ASSERT(other_time > 0.0, "no binding time besides IP link");
    return t.dataBytes / other_time;
}

} // namespace gables
