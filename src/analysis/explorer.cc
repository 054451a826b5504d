#include "analysis/explorer.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>

#include "core/evaluator.h"
#include "telemetry/span.h"
#include "util/logging.h"

namespace gables {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Pareto domination: a is at least as good on both axes and
 * strictly better on one. */
bool
dominatesPoint(double a_perf, double a_cost, double b_perf,
               double b_cost)
{
    return a_perf >= b_perf && a_cost <= b_cost &&
           (a_perf > b_perf || a_cost < b_cost);
}

} // namespace

double
CostModel::cost(double bpeak, const std::vector<IpSpec> &ips) const
{
    double accel = 0.0;
    double ip_bw = 0.0;
    for (const IpSpec &ip : ips) {
        accel += ip.acceleration;
        ip_bw += ip.bandwidth;
    }
    return costPerAcceleration * accel + costPerBpeak * bpeak +
           costPerIpBandwidth * ip_bw;
}

double
CostModel::cost(const SocSpec &soc) const
{
    return cost(soc.bpeak(), soc.ips());
}

std::optional<double>
CostModel::per(Param p) const
{
    switch (p.kind) {
    case Param::Kind::Bpeak:
        return costPerBpeak;
    case Param::Kind::Acceleration:
        return costPerAcceleration;
    case Param::Kind::IpBandwidth:
        return costPerIpBandwidth;
    default:
        return std::nullopt;
    }
}

DesignExplorer::DesignExplorer(SocSpec base, std::vector<Usecase> usecases,
                               CostModel cost)
    : base_(std::move(base)), usecases_(std::move(usecases)),
      cost_(cost)
{
    if (usecases_.empty())
        fatal("design explorer needs at least one usecase");
    for (const Usecase &u : usecases_)
        checkPair(base_, u);
}

void
DesignExplorer::sweep(Param p, std::vector<double> values)
{
    if (values.empty())
        fatal("empty sweep values");
    if (!cost_.per(p))
        fatal("cannot sweep " + p.name() +
              ": the explorer's bounds and cost model cover Bpeak, "
              "A[i] and B[i] only");
    if (p.kind == Param::Kind::Acceleration && p.ip == 0)
        fatal("cannot sweep A0: the paper fixes A0 = 1");
    if (p.ip >= base_.numIps())
        fatal("sweep targets IP " + std::to_string(p.ip) +
              " but the base design has only " +
              std::to_string(base_.numIps()) + " IPs");
    knobs_.push_back({p, std::move(values)});
}

size_t
DesignExplorer::gridSize() const
{
    size_t total = 1;
    for (const Knob &knob : knobs_)
        total *= knob.values.size();
    return total;
}

void
DesignExplorer::checkCostFinite() const
{
    // Bound every design's cost by the magnitudes: each priced term
    // at its largest value on the grid (a swept term takes its last
    // knob's values, as the designs do), times |coefficient|.
    // Floating-point addition and multiplication are monotone, so a
    // finite bound keeps every design's cost, and each partial sum
    // of it, finite.
    double bpeak = std::fabs(base_.bpeak());
    std::vector<IpSpec> ips = base_.ips();
    for (IpSpec &ip : ips) {
        ip.acceleration = std::fabs(ip.acceleration);
        ip.bandwidth = std::fabs(ip.bandwidth);
    }
    for (const Knob &knob : knobs_) {
        double largest = 0.0;
        for (double v : knob.values)
            largest = std::max(largest, std::fabs(v));
        const Param p = knob.param;
        double &slot = p.kind == Param::Kind::Bpeak ? bpeak
                       : p.kind == Param::Kind::Acceleration
                           ? ips[p.ip].acceleration
                           : ips[p.ip].bandwidth;
        slot = largest;
    }
    const CostModel magnitude{std::fabs(cost_.costPerAcceleration),
                              std::fabs(cost_.costPerBpeak),
                              std::fabs(cost_.costPerIpBandwidth)};
    if (!std::isfinite(magnitude.cost(bpeak, ips)))
        fatal("cost model overflows on this grid: the costs of its "
              "largest designs are not finite");
}

bool
DesignExplorer::hasDuplicateKnobTargets() const
{
    for (size_t i = 0; i < knobs_.size(); ++i) {
        for (size_t j = i + 1; j < knobs_.size(); ++j) {
            if (knobs_[i].param == knobs_[j].param)
                return true;
        }
    }
    return false;
}

/**
 * Per-worker evaluation state for packs of W designs: one pack per
 * usecase, the knob digits each lane last received (so consecutive
 * packs only restage the knobs that changed — a lane moves W flat
 * indices per pack, which typically changes only the low digits),
 * and scratch IPs for materializing a lane's SocSpec.
 */
template <size_t W>
struct DesignExplorer::Lanes {
    std::vector<GablesPack<W>> packs;
    /** Last digit staged per [lane][knob], flat. */
    std::vector<size_t> digits;
    /** Digits of the lane being staged. */
    std::vector<size_t> cur;
    std::vector<IpSpec> ips;
    /** False when knobs share a model term: the term's value then
     * depends on applying every knob in registration order (later
     * wins), so the unchanged-digit skip would make a design's value
     * depend on traversal history. */
    bool incremental = true;
};

template <size_t W>
DesignExplorer::Lanes<W>
DesignExplorer::makeLanes() const
{
    Lanes<W> ls;
    ls.packs.reserve(usecases_.size());
    for (const Usecase &u : usecases_)
        ls.packs.emplace_back(base_, u);
    // "No digit applied yet": the first pack stages every knob on
    // every lane.
    ls.digits.assign(W * knobs_.size(),
                     std::numeric_limits<size_t>::max());
    ls.cur.assign(knobs_.size(), 0);
    ls.ips = base_.ips();
    ls.incremental = !hasDuplicateKnobTargets();
    return ls;
}

template <size_t W>
void
DesignExplorer::runLanes(Lanes<W> &ls, size_t p0, size_t cnt,
                         Point *out) const
{
    const size_t n_knobs = knobs_.size();
    // Decompose the first flat index once; the remaining lanes
    // advance the digit odometer by one step each.
    size_t rest = p0;
    for (size_t k = 0; k < n_knobs; ++k) {
        ls.cur[k] = rest % knobs_[k].values.size();
        rest /= knobs_[k].values.size();
    }
    for (size_t w = 0; w < cnt; ++w) {
        if (w != 0) {
            for (size_t k = 0; k < n_knobs; ++k) {
                if (++ls.cur[k] < knobs_[k].values.size())
                    break;
                ls.cur[k] = 0;
            }
        }
        // Stage each knob in registration order, skipping digits the
        // lane already carries.
        size_t *lane_digits = ls.digits.data() + w * n_knobs;
        for (size_t k = 0; k < n_knobs; ++k) {
            const size_t digit = ls.cur[k];
            if (!ls.incremental || lane_digits[k] != digit) {
                for (GablesPack<W> &pack : ls.packs)
                    pack.set(w, knobs_[k].param, knobs_[k].values[digit]);
                lane_digits[k] = digit;
            }
        }
    }
    for (GablesPack<W> &pack : ls.packs)
        pack.run(cnt);

    // Linear cost from the pack's own parameter rows: the per-lane
    // sums reduce in IP index order, so the bits match
    // CostModel::cost() on the design's SocSpec.
    double sum_a[W] = {};
    double sum_b[W] = {};
    const GablesPack<W> &hw = ls.packs.front();
    hw.paramSums(sum_a, sum_b);
    for (size_t w = 0; w < cnt; ++w) {
        double min_perf = kInf;
        for (const GablesPack<W> &pack : ls.packs)
            min_perf = std::min(min_perf, pack.attainable(w));
        out[w] = Point{p0 + w, min_perf,
                       cost_.costPerAcceleration * sum_a[w] +
                           cost_.costPerBpeak * hw.get(w, Param::bpeak()) +
                           cost_.costPerIpBandwidth * sum_b[w]};
    }
}

template <size_t W>
void
DesignExplorer::materialize(Lanes<W> &ls, size_t w, const Point &p,
                            Candidate &out) const
{
    const GablesPack<W> &hw = ls.packs.front();
    for (size_t i = 0; i < ls.ips.size(); ++i) {
        ls.ips[i].acceleration = hw.get(w, Param::acceleration(i));
        ls.ips[i].bandwidth = hw.get(w, Param::ipBandwidth(i));
    }
    out.soc = SocSpec(base_.name(), base_.ppeak(),
                      hw.get(w, Param::bpeak()), ls.ips);
    out.minPerf = p.minPerf;
    out.cost = p.cost;
    out.pareto = false;
    out.perUsecase.clear();
    out.perUsecase.reserve(ls.packs.size());
    for (const GablesPack<W> &pack : ls.packs)
        out.perUsecase.push_back(pack.attainable(w));
}

std::vector<Candidate>
DesignExplorer::explore(int jobs, parallel::ForStats *stats) const
{
    // The cross product is enumerated odometer-style with knob 0
    // fastest-varying; flat index i decomposes into per-knob digits
    // so candidates land in pre-sized slots in enumeration order
    // regardless of how many workers evaluate them. One loop index is
    // one pack of consecutive flat indices.
    checkCostFinite();
    std::vector<Candidate> candidates(
        gridSize(), Candidate{base_, 0.0, {}, 0.0, false});
    constexpr size_t W = kGridWidth;
    const size_t packs = (candidates.size() + W - 1) / W;

    int workers = parallel::plannedWorkers(packs, jobs);
    std::vector<Lanes<W>> states;
    states.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w)
        states.push_back(makeLanes<W>());

    parallel::ForStats st;
    {
        GABLES_SPAN("explore.grid");
        st = parallel::parallelFor(
            packs,
            [&](size_t pi, int worker) {
                Lanes<W> &ls = states[static_cast<size_t>(worker)];
                const size_t p0 = pi * W;
                const size_t cnt = std::min(W, candidates.size() - p0);
                Point points[W] = {};
                runLanes(ls, p0, cnt, points);
                for (size_t w = 0; w < cnt; ++w)
                    materialize(ls, w, points[w], candidates[p0 + w]);
            },
            jobs);
    }
    if (stats)
        *stats = st;

    // Pareto marking: candidate c is dominated if another candidate
    // has >= perf and <= cost with at least one strict. Each index
    // only writes its own flag, so the scan parallelizes cleanly.
    GABLES_SPAN("explore.pareto");
    parallel::parallelFor(
        candidates.size(),
        [&](size_t i) {
            bool dominated = false;
            for (size_t j = 0;
                 j < candidates.size() && !dominated; ++j) {
                if (i == j)
                    continue;
                dominated = dominatesPoint(
                    candidates[j].minPerf, candidates[j].cost,
                    candidates[i].minPerf, candidates[i].cost);
            }
            candidates[i].pareto = !dominated;
        },
        jobs);

    // Stable: equal-minPerf candidates keep enumeration order, which
    // is what makes the pruned frontier ordering reproducible.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.minPerf > b.minPerf;
                     });
    return candidates;
}

std::vector<Candidate>
DesignExplorer::exploreFrontier(const ExploreOptions &options,
                                ExploreStats *stats) const
{
    checkCostFinite();
    const size_t total = gridSize();
    const size_t n_use = usecases_.size();
    const size_t n_knobs = knobs_.size();
    constexpr size_t W = kGridWidth;

    const int workers = parallel::plannedWorkers(total, options.jobs);

    // Per-knob bounds assume each knob drives its own model term;
    // two sweeps on the same term make the later one override the
    // earlier in enumeration order, so fall back to full evaluation.
    const bool prune = options.prune && !hasDuplicateKnobTargets();
    const size_t chunk = std::max<size_t>(1, options.subgridSize);

    ExploreStats st;
    st.forStats.workers = workers;
    st.forStats.busySeconds.assign(static_cast<size_t>(workers), 0.0);

    std::vector<Lanes<W>> states;
    states.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w)
        states.push_back(makeLanes<W>());
    // Single-point packs for the subgrid bound probes and for the
    // final frontier materialization.
    Lanes<1> probe = prune ? makeLanes<1>() : Lanes<1>{};
    Lanes<1> single = makeLanes<1>();

    // Flat-index stride of each knob (knob 0 varies fastest).
    std::vector<size_t> stride(n_knobs, 1);
    for (size_t k = 1; k < n_knobs; ++k)
        stride[k] = stride[k - 1] * knobs_[k - 1].values.size();

    // The digits knob k takes over flat range [lo, hi] form either
    // the full radix or a contiguous run (mod radix) of the quotient
    // lo/stride .. hi/stride.
    auto forEachCoveredDigit = [&](size_t k, size_t lo, size_t hi,
                                   auto &&fn) {
        size_t radix = knobs_[k].values.size();
        size_t q_lo = lo / stride[k];
        size_t q_hi = hi / stride[k];
        size_t count = q_hi - q_lo + 1;
        if (count >= radix) {
            for (size_t d = 0; d < radix; ++d)
                fn(d);
            return;
        }
        size_t d = q_lo % radix;
        for (size_t t = 0; t < count; ++t) {
            fn(d);
            d = (d + 1 == radix) ? 0 : d + 1;
        }
    };

    // Pareto set of all designs evaluated so far, ordered by cost,
    // equal costs in enumeration order (merged in enumeration order,
    // each inserted after its equals). No incumbent dominates
    // another, so minPerf never decreases along this order: the best
    // performance at or under a cost is the last incumbent there.
    std::multimap<double, Point> incumbents;
    // The incumbent just before @p bound, which performs best among
    // those before it; null when there is none.
    auto bestBelow = [&](auto bound) -> const Point * {
        if (bound == incumbents.begin())
            return nullptr;
        return &std::prev(bound)->second;
    };

    // A subgrid is skipped when some incumbent strictly dominates
    // its best corner — and therefore strictly dominates every
    // design inside it: performance is weakly nondecreasing in every
    // knob (bitwise, since FP *, /, +, max are weakly monotone), so
    // Pmax at the all-max corner bounds the box from above, and the
    // linear cost at the sign-chosen corner bounds it from below.
    auto dominatedByIncumbent = [&](double p_max, double c_min) {
        const Point *cheaper = bestBelow(incumbents.lower_bound(c_min));
        const Point *at_most = bestBelow(incumbents.upper_bound(c_min));
        return (cheaper && cheaper->minPerf >= p_max) ||
               (at_most && at_most->minPerf > p_max);
    };

    // The min-cost corner goes onto bare hardware values: cost needs
    // no model evaluation. Per knob, resolved once: whether the corner
    // takes its smallest covered value (a non-negative cost
    // coefficient) or its largest, and where the value goes.
    double corner_bpeak = base_.bpeak();
    std::vector<IpSpec> corner_ips = base_.ips();
    struct CornerTerm {
        bool wantMin;
        double *slot;
    };
    std::vector<CornerTerm> corner_terms;
    corner_terms.reserve(n_knobs);
    for (const Knob &knob : knobs_) {
        const Param p = knob.param;
        IpSpec &ip = corner_ips[p.ip];
        double *slot = p.kind == Param::Kind::Bpeak ? &corner_bpeak
                       : p.kind == Param::Kind::Acceleration
                           ? &ip.acceleration
                           : &ip.bandwidth;
        corner_terms.push_back({*cost_.per(p) >= 0.0, slot});
    }
    auto subgridBounds = [&](size_t lo, size_t hi, double &p_max,
                             double &c_min) {
        // Max-performance corner: largest covered value per knob,
        // evaluated with the same arithmetic as any real design.
        for (size_t k = 0; k < n_knobs; ++k) {
            double best = -kInf;
            forEachCoveredDigit(k, lo, hi, [&](size_t d) {
                best = std::max(best, knobs_[k].values[d]);
            });
            for (GablesPack<1> &pack : probe.packs)
                pack.set(0, knobs_[k].param, best);
        }
        double min_perf = kInf;
        for (GablesPack<1> &pack : probe.packs) {
            pack.run();
            min_perf = std::min(min_perf, pack.attainable(0));
        }
        p_max = min_perf;

        // Min-cost corner: per knob, the covered value whose linear
        // cost contribution is smallest given the coefficient sign.
        for (size_t k = 0; k < n_knobs; ++k) {
            const bool want_min = corner_terms[k].wantMin;
            double chosen = want_min ? kInf : -kInf;
            forEachCoveredDigit(k, lo, hi, [&](size_t d) {
                double v = knobs_[k].values[d];
                chosen = want_min ? std::min(chosen, v)
                                  : std::max(chosen, v);
            });
            *corner_terms[k].slot = chosen;
        }
        c_min = cost_.cost(corner_bpeak, corner_ips);
    };

    auto mergeIncumbent = [&](const Point &p) {
        // Only the best incumbent at or under p's cost can dominate p.
        const auto after = incumbents.upper_bound(p.cost);
        const Point *best = bestBelow(after);
        if (best && dominatesPoint(best->minPerf, best->cost, p.minPerf,
                                   p.cost))
            return;
        // p dominates one run: from the first incumbent at or above
        // its cost while minPerf <= p's. Equal-cost incumbents tie on
        // minPerf, so p dominates all of them or none.
        auto first = incumbents.lower_bound(p.cost);
        if (first != after &&
            !dominatesPoint(p.minPerf, p.cost, first->second.minPerf,
                            first->second.cost))
            first = after;
        auto last = first;
        while (last != incumbents.end() &&
               dominatesPoint(p.minPerf, p.cost, last->second.minPerf,
                              last->second.cost))
            ++last;
        incumbents.erase(first, last);
        incumbents.emplace_hint(incumbents.upper_bound(p.cost), p.cost, p);
    };

    // One pool reused across every subgrid; busy time accumulates.
    parallel::ThreadPool pool(workers);
    std::vector<Point> chunk_points;
    chunk_points.reserve(chunk);

    for (size_t lo = 0; lo < total; lo += chunk) {
        const size_t hi = std::min(total, lo + chunk);
        if (prune && !incumbents.empty()) {
            GABLES_SPAN("explore.bounds");
            double p_max = 0.0;
            double c_min = 0.0;
            subgridBounds(lo, hi - 1, p_max, c_min);
            if (dominatedByIncumbent(p_max, c_min)) {
                ++st.subgridsSkipped;
                st.evalsPruned +=
                    static_cast<uint64_t>(hi - lo) * n_use;
                continue;
            }
        }

        GABLES_SPAN("explore.grid");
        chunk_points.resize(hi - lo);
        // One loop index = one pack of consecutive flat indices.
        const size_t npacks = (hi - lo + W - 1) / W;
        pool.forEach(npacks, [&](size_t pi, int worker) {
            const size_t p0 = lo + pi * W;
            runLanes(states[static_cast<size_t>(worker)], p0,
                     std::min(W, hi - p0), chunk_points.data() + (p0 - lo));
        });
        const std::vector<double> &busy = pool.busySeconds();
        for (size_t w = 0;
             w < busy.size() && w < st.forStats.busySeconds.size(); ++w)
            st.forStats.busySeconds[w] += busy[w];

        // Merge in enumeration order so the incumbent list stays in
        // enumeration order (appends only ever grow the flat index).
        for (const Point &p : chunk_points)
            mergeIncumbent(p);
    }

    // Materialize the frontier: re-derive each member's SocSpec and
    // per-usecase detail (deterministic, so bit-identical to the
    // values that earned it frontier membership).
    GABLES_SPAN("explore.materialize");
    // The incumbents are already in frontier(explore()) order: by
    // cost, equal costs (which tie on minPerf too, else one would
    // dominate the other) in enumeration order.
    std::vector<Candidate> out;
    out.reserve(incumbents.size());
    for (const auto &[cost, p] : incumbents) {
        Candidate c{base_, 0.0, {}, 0.0, false};
        Point again{};
        runLanes(single, p.flat, 1, &again);
        materialize(single, 0, again, c);
        c.pareto = true;
        out.push_back(std::move(c));
    }

    for (const Lanes<W> &ls : states) {
        for (const GablesPack<W> &pack : ls.packs)
            st.evals += pack.evalCount();
    }
    for (const Lanes<1> *ls : {&probe, &single}) {
        for (const GablesPack<1> &pack : ls->packs)
            st.evals += pack.evalCount();
    }
    if (stats)
        *stats = st;
    return out;
}

std::vector<Candidate>
DesignExplorer::frontier(const std::vector<Candidate> &candidates)
{
    std::vector<Candidate> out;
    size_t members = 0;
    for (const Candidate &c : candidates)
        members += c.pareto ? 1 : 0;
    out.reserve(members);
    for (const Candidate &c : candidates) {
        if (c.pareto)
            out.push_back(c);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.cost < b.cost;
                     });
    return out;
}

} // namespace gables
