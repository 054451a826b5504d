#include "analysis/sweep.h"

#include <algorithm>

#include "telemetry/span.h"
#include "util/logging.h"
#include "util/strings.h"

namespace gables {

Series
Sweep::mixing(const SocSpec &soc, double i0, double i1,
              std::vector<double> fractions, bool normalize,
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

    // y = attainable / base; x / 1.0 is exact when not normalizing.
    double base = 1.0;
    if (normalize)
        base = GablesModel::evaluate(soc, usecase_for(0.0)).attainable;

    Series series;
    series.label = "I0=" + formatDouble(i0) + " I1=" + formatDouble(i1);
    series.x = std::move(fractions);
    const std::vector<double> &xs = series.x;
    series.y.resize(xs.size());

    // Each loop index is one pack of W points; lanes land in
    // pre-sized slots, so the output is the same for any job count.
    constexpr size_t W = kGridWidth;
    const size_t packs = (xs.size() + W - 1) / W;
    // One pack per pool worker: packs are stateful, and worker
    // indices are stable for the duration of one loop. An empty grid
    // never calls the body, so compile nothing.
    std::vector<GablesPack<W>> lanes;
    if (packs != 0) {
        GABLES_SPAN("sweep.compile");
        lanes.assign(
            static_cast<size_t>(parallel::plannedWorkers(packs, jobs)),
            GablesPack<W>(soc, usecase_for(xs[0])));
    }

    GABLES_SPAN("sweep.grid");
    parallel::ForStats st = parallel::parallelFor(
        packs,
        [&](size_t pi, int worker) {
            GablesPack<W> &pack = lanes[static_cast<size_t>(worker)];
            const size_t p0 = pi * W;
            const size_t cnt = std::min(W, xs.size() - p0);
            const double *fs = xs.data() + p0;
            double f0[W] = {};
            for (size_t w = 0; w < cnt; ++w)
                f0[w] = 1.0 - fs[w];
            pack.setLanes(Param::fraction(0), f0, cnt);
            pack.setLanes(Param::fraction(1), fs, cnt);
            pack.run(cnt);
            for (size_t w = 0; w < cnt; ++w)
                series.y[p0 + w] = pack.attainable(w) / base;
        },
        jobs);
    if (stats)
        *stats = st;
    return series;
}

} // namespace gables
