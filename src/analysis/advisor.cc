#include "analysis/advisor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "analysis/balance.h"
#include "analysis/optimal_split.h"
#include "core/evaluator.h"
#include "telemetry/span.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/units.h"

namespace gables {

std::string
toString(AdviceKind kind)
{
    switch (kind) {
      case AdviceKind::RaiseBpeak:
        return "raise Bpeak";
      case AdviceKind::RaiseIpBandwidth:
        return "raise IP link bandwidth";
      case AdviceKind::RaiseAcceleration:
        return "raise IP acceleration";
      case AdviceKind::RaiseIntensity:
        return "raise operational intensity";
      case AdviceKind::Resplit:
        return "re-apportion work";
      case AdviceKind::ShrinkSlack:
        return "shrink over-provisioned resource";
    }
    return "unknown";
}

namespace {

/** The text of a single-input move @p a on @p soc. */
std::string
describe(const SocSpec &soc, const Advice &a)
{
    if (a.kind == AdviceKind::RaiseBpeak)
        return "raise Bpeak from " + formatByteRate(a.before) + " to " +
               formatByteRate(a.after);
    const std::string who = soc.ipLabel(static_cast<size_t>(a.ip));
    switch (a.kind) {
    case AdviceKind::RaiseIpBandwidth:
        return "widen " + who + " link from " +
               formatByteRate(a.before) + " to " +
               formatByteRate(a.after);
    case AdviceKind::RaiseAcceleration:
        return "grow " + who + " acceleration from " +
               formatDouble(a.before, 3) + " to " +
               formatDouble(a.after, 3);
    default:
        return "increase data reuse at " + who + " to I = " +
               formatDouble(a.after, 3) +
               " ops/byte (software + local memory)";
    }
}

} // namespace

double
Advisor::minimalScale(const std::function<double(double)> &perf_at_scale,
                      double max_scale)
{
    double target = perf_at_scale(max_scale);
    double lo = 1.0;
    double hi = max_scale;
    for (int iter = 0; iter < 60; ++iter) {
        double mid = std::sqrt(lo * hi);
        if (perf_at_scale(mid) >= target * (1.0 - 1e-9))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

std::vector<Advice>
Advisor::advise(const SocSpec &soc, const Usecase &usecase,
                const Options &options)
{
    GABLES_SPAN("advisor.advise");
    if (!(options.maxScale > 1.0))
        fatal("advisor maxScale must exceed 1");

    // One compiled single-point pack serves the base point and every
    // probe of the minimalScale bisections: each probe sets the
    // scaled parameter, evaluates, and restores the base value.
    GablesPack<1> ev(soc, usecase);
    ev.run();
    const double base = ev.attainable(0);
    std::vector<Advice> advice;

    // The single-input moves, in a fixed order (the sort below is
    // not stable, so this order is part of the output): Bpeak, then
    // per working IP its link, its acceleration (A0 is pinned to 1 by
    // the model) and its intensity.
    std::vector<std::pair<AdviceKind, Param>> moves = {
        {AdviceKind::RaiseBpeak, Param::bpeak()}};
    for (size_t i = 0; i < soc.numIps(); ++i) {
        if (usecase.fraction(i) == 0.0)
            continue;
        moves.push_back({AdviceKind::RaiseIpBandwidth,
                         Param::ipBandwidth(i)});
        if (i > 0)
            moves.push_back({AdviceKind::RaiseAcceleration,
                             Param::acceleration(i)});
        if (!std::isinf(usecase.intensity(i)))
            moves.push_back(
                {AdviceKind::RaiseIntensity, Param::intensity(i)});
    }

    for (const auto &[kind, p] : moves) {
        const double before = p.read(soc, usecase);
        const double max_scale = kind == AdviceKind::RaiseIntensity
                                     ? options.maxIntensityScale
                                     : options.maxScale;
        auto perf_at = [&](double s) {
            ev.set(0, p, before * s);
            ev.run();
            double perf = ev.attainable(0);
            ev.set(0, p, before);
            return perf;
        };
        double best = perf_at(max_scale);
        if (best < base * options.minGain)
            continue;
        double scale = minimalScale(perf_at, max_scale);
        Advice a;
        a.kind = kind;
        a.ip = p.perIp() ? static_cast<int>(p.ip) : -1;
        a.before = before;
        a.after = before * scale;
        a.newAttainable = perf_at(scale);
        a.gain = a.newAttainable / base;
        a.description = describe(soc, a);
        advice.push_back(std::move(a));
    }

    // Software: optimal re-split at current intensities.
    {
        std::vector<double> intensities;
        intensities.reserve(soc.numIps());
        bool feasible = true;
        for (size_t i = 0; i < soc.numIps(); ++i) {
            double v = usecase.intensity(i);
            if (!(v > 0.0))
                feasible = false;
            intensities.push_back(v);
        }
        if (feasible) {
            OptimalSplit split =
                OptimalSplitSolver(soc, intensities).solve();
            if (split.attainable >= base * options.minGain) {
                Advice a;
                a.kind = AdviceKind::Resplit;
                a.newAttainable = split.attainable;
                a.gain = split.attainable / base;
                std::string f_list;
                for (size_t i = 0; i < split.fractions.size(); ++i)
                    f_list += (i ? ", " : "") +
                              formatDouble(split.fractions[i], 3);
                a.description =
                    "re-apportion work to f = {" + f_list + "}";
                advice.push_back(std::move(a));
            }
        }
    }

    std::sort(advice.begin(), advice.end(),
              [](const Advice &a, const Advice &b) {
                  return a.gain > b.gain;
              });

    // Slack report: resources that can shrink for free.
    double sufficient_bpeak = Balance::sufficientBpeak(soc, usecase);
    if (sufficient_bpeak > 0.0 &&
        sufficient_bpeak < soc.bpeak() * 0.999) {
        Advice a;
        a.kind = AdviceKind::ShrinkSlack;
        a.before = soc.bpeak();
        a.after = sufficient_bpeak;
        a.newAttainable = base;
        a.gain = 1.0;
        a.description = "Bpeak of " + formatByteRate(soc.bpeak()) +
                        " is over-provisioned; " +
                        formatByteRate(sufficient_bpeak) +
                        " suffices for this usecase";
        advice.push_back(std::move(a));
    }
    for (size_t i = 0; i < soc.numIps(); ++i) {
        if (usecase.fraction(i) == 0.0)
            continue;
        double sufficient =
            Balance::sufficientIpBandwidth(soc, usecase, i);
        if (sufficient > 0.0 &&
            sufficient < soc.ip(i).bandwidth * 0.999) {
            Advice a;
            a.kind = AdviceKind::ShrinkSlack;
            a.ip = static_cast<int>(i);
            a.before = soc.ip(i).bandwidth;
            a.after = sufficient;
            a.newAttainable = base;
            a.gain = 1.0;
            a.description =
                soc.ip(i).name + " link of " +
                formatByteRate(soc.ip(i).bandwidth) +
                " is over-provisioned; " + formatByteRate(sufficient) +
                " suffices";
            advice.push_back(std::move(a));
        }
    }
    return advice;
}

} // namespace gables
