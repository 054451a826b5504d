#include "analysis/sweep.h"

#include <algorithm>

#include "telemetry/span.h"
#include "util/logging.h"
#include "util/strings.h"

namespace gables {

Series
Sweep::fill(std::string label, const std::vector<double> &xs,
            const std::function<double(double)> &evaluate, int jobs,
            parallel::ForStats *stats)
{
    Series series;
    series.label = std::move(label);
    series.x.reserve(xs.size());
    series.y.reserve(xs.size());
    series.x = xs;
    series.y.resize(xs.size());
    parallel::ForOptions opts;
    opts.jobs = jobs;
    GABLES_SPAN("sweep.grid");
    parallel::ForStats st = parallel::parallelFor(
        xs.size(),
        [&](size_t i) { series.y[i] = evaluate(series.x[i]); }, opts);
    if (stats)
        *stats = st;
    return series;
}

Series
Sweep::fillWith(std::string label, const SocSpec &soc,
                const Usecase &seed, const std::vector<double> &xs,
                const std::function<void(GablesPack<kGridWidth> &,
                                         const double *, size_t)> &stage,
                double divisor, int jobs, parallel::ForStats *stats)
{
    Series series;
    series.label = std::move(label);
    series.x = xs;
    series.y.resize(xs.size());

    // Each loop index is one pack of W points; lanes land in
    // pre-sized slots, so the output is the same for any job count.
    constexpr size_t W = kGridWidth;
    const size_t packs = (xs.size() + W - 1) / W;
    parallel::ForOptions opts;
    opts.jobs = jobs;
    // One pack per pool worker: mutators are stateful, and worker
    // indices are stable for the duration of one loop. An empty grid
    // never calls the body, so compile nothing.
    std::vector<GablesPack<W>> lanes;
    if (packs != 0) {
        GABLES_SPAN("sweep.compile");
        lanes.assign(
            static_cast<size_t>(parallel::plannedWorkers(packs, opts)),
            GablesPack<W>(soc, seed));
    }

    GABLES_SPAN("sweep.grid");
    parallel::ForStats st = parallel::parallelFor(
        packs,
        [&](size_t pi, int worker) {
            GablesPack<W> &pack = lanes[static_cast<size_t>(worker)];
            const size_t p0 = pi * W;
            const size_t cnt = std::min(W, xs.size() - p0);
            stage(pack, series.x.data() + p0, cnt);
            pack.run(cnt);
            for (size_t w = 0; w < cnt; ++w)
                series.y[p0 + w] = pack.attainable(w) / divisor;
        },
        opts);
    if (stats)
        *stats = st;
    return series;
}

Series
Sweep::mixing(const SocSpec &soc, double i0, double i1,
              const std::vector<double> &fractions, bool normalize,
              int jobs, parallel::ForStats *stats)
{
    if (soc.numIps() < 2)
        fatal("mixing sweep needs a SoC with at least two IPs");
    for (double f : fractions) {
        if (!(f >= 0.0 && f <= 1.0))
            fatal("mixing fraction must be in [0, 1]");
    }

    auto usecase_for = [&](double f) {
        std::vector<IpWork> work(soc.numIps());
        work[0] = IpWork{1.0 - f, i0};
        work[1] = IpWork{f, i1};
        for (size_t i = 2; i < work.size(); ++i)
            work[i] = IpWork{0.0, 1.0};
        return Usecase("mixing", std::move(work));
    };

    double base = 1.0;
    if (normalize) {
        GablesPack<1> ev(soc, usecase_for(0.0));
        ev.run();
        base = ev.attainable(0);
    }

    Usecase seed =
        usecase_for(fractions.empty() ? 0.0 : fractions[0]);
    return fillWith(
        "I0=" + formatDouble(i0) + " I1=" + formatDouble(i1), soc, seed,
        fractions,
        [](GablesPack<kGridWidth> &pack, const double *fs, size_t cnt) {
            double f0[kGridWidth] = {};
            for (size_t w = 0; w < cnt; ++w)
                f0[w] = 1.0 - fs[w];
            pack.setFractionRow(0, f0, cnt);
            pack.setFractionRow(1, fs, cnt);
        },
        base, jobs, stats);
}

Series
Sweep::bpeak(const SocSpec &soc, const Usecase &usecase,
             const std::vector<double> &values, int jobs,
             parallel::ForStats *stats)
{
    return fillWith(
        "Bpeak sweep", soc, usecase, values,
        [](GablesPack<kGridWidth> &pack, const double *bs, size_t cnt) {
            pack.setBpeakLanes(bs, cnt);
        },
        1.0, jobs, stats);
}

Series
Sweep::intensity(const SocSpec &soc, const Usecase &usecase, size_t ip,
                 const std::vector<double> &values, int jobs,
                 parallel::ForStats *stats)
{
    return fillWith(
        "I[" + std::to_string(ip) + "] sweep", soc, usecase, values,
        [ip](GablesPack<kGridWidth> &pack, const double *is,
             size_t cnt) { pack.setIntensityRow(ip, is, cnt); },
        1.0, jobs, stats);
}

Series
Sweep::acceleration(const SocSpec &soc, const Usecase &usecase, size_t ip,
                    const std::vector<double> &values, int jobs,
                    parallel::ForStats *stats)
{
    if (ip == 0)
        fatal("cannot sweep A0: the paper fixes A0 = 1");
    return fillWith(
        "A[" + std::to_string(ip) + "] sweep", soc, usecase, values,
        [ip](GablesPack<kGridWidth> &pack, const double *as,
             size_t cnt) { pack.setAccelerationRow(ip, as, cnt); },
        1.0, jobs, stats);
}

Series
Sweep::ipBandwidth(const SocSpec &soc, const Usecase &usecase, size_t ip,
                   const std::vector<double> &values, int jobs,
                   parallel::ForStats *stats)
{
    return fillWith(
        "B[" + std::to_string(ip) + "] sweep", soc, usecase, values,
        [ip](GablesPack<kGridWidth> &pack, const double *bs,
             size_t cnt) { pack.setIpBandwidthRow(ip, bs, cnt); },
        1.0, jobs, stats);
}

Series
Sweep::custom(const std::string &label, const std::vector<double> &xs,
              const std::function<double(double)> &evaluate, int jobs,
              parallel::ForStats *stats)
{
    return fill(label, xs, evaluate, jobs, stats);
}

} // namespace gables
