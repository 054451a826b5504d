#include "analysis/optimal_split.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/logging.h"

namespace gables {

OptimalSplitSolver::OptimalSplitSolver(const SocSpec &soc,
                                       std::vector<double> intensities)
    : soc_(soc), intensities_(std::move(intensities))
{
    if (intensities_.size() != soc_.numIps())
        fatal("optimal split: need one intensity per IP");
    for (size_t i = 0; i < intensities_.size(); ++i) {
        if (!(intensities_[i] > 0.0))
            fatal("optimal split: intensity I[" + std::to_string(i) +
                  "] must be > 0");
    }

    // Both fill passes visit IPs in the same order and use the same
    // t-independent roofline values; compute them once here.
    const size_t n = soc_.numIps();
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), size_t{0});
    std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
        return intensities_[a] > intensities_[b];
    });
    roofs_.resize(n);
    for (size_t i = 0; i < n; ++i) {
        roofs_[i] = std::isinf(intensities_[i])
                        ? soc_.ipPeakPerf(i)
                        : std::min(soc_.ip(i).bandwidth *
                                       intensities_[i],
                                   soc_.ipPeakPerf(i));
    }
}

double
OptimalSplitSolver::placeableWork(double t) const
{
    // Each IP can absorb at most ri * t ops within deadline t; the
    // memory interface can carry Bpeak * t bytes. Greedily place work
    // on the IPs that cost the least bytes per op (highest Ii) first.
    double byte_budget = soc_.bpeak() * t;
    double placed = 0.0;
    for (size_t i : order_) {
        double cap = roofs_[i] * t;
        if (std::isinf(intensities_[i])) {
            placed += cap; // free of memory traffic
            continue;
        }
        double bytes_per_op = 1.0 / intensities_[i];
        double mem_cap = byte_budget / bytes_per_op;
        double take = std::min(cap, mem_cap);
        placed += take;
        byte_budget -= take * bytes_per_op;
        if (byte_budget <= 0.0)
            break;
    }
    return placed;
}

OptimalSplit
OptimalSplitSolver::solve() const
{
    // placeableWork(t) is increasing and linear in t, so the optimal
    // deadline is t* = 1 / placeableWork(1): scale-invariance lets us
    // evaluate at t = 1 and read off the throughput directly.
    double throughput = placeableWork(1.0);
    GABLES_ASSERT(throughput > 0.0, "no work placeable at any rate");
    double t_star = 1.0 / throughput;

    // Re-run the greedy fill at t* to recover the fractions.
    const size_t n = soc_.numIps();
    std::vector<double> fractions(n, 0.0);
    double byte_budget = soc_.bpeak() * t_star;
    double remaining = 1.0;
    for (size_t i : order_) {
        // Stop once the memory budget is spent, as placeableWork()
        // does: the subtraction below can round it just below zero,
        // and the next IP would then take a negative fraction.
        if (remaining <= 0.0 || byte_budget <= 0.0)
            break;
        double cap = roofs_[i] * t_star;
        double take;
        if (std::isinf(intensities_[i])) {
            take = std::min(cap, remaining);
        } else {
            double bytes_per_op = 1.0 / intensities_[i];
            double mem_cap = byte_budget / bytes_per_op;
            take = std::min({cap, mem_cap, remaining});
            byte_budget -= take * bytes_per_op;
        }
        fractions[i] = take;
        remaining -= take;
    }
    // Numerical residue: dump it on the last IP touched and
    // renormalize (it is O(eps)).
    double sum = std::accumulate(fractions.begin(), fractions.end(), 0.0);
    GABLES_ASSERT(sum > 0.0, "greedy fill placed no work");
    for (double &f : fractions)
        f /= sum;

    std::vector<IpWork> work(n);
    for (size_t i = 0; i < n; ++i)
        work[i] = IpWork{fractions[i], intensities_[i]};
    Usecase usecase("optimal split", std::move(work));

    double attainable = GablesModel::evaluate(soc_, usecase).attainable;
    return OptimalSplit{std::move(fractions), attainable,
                        std::move(usecase)};
}

} // namespace gables
