/**
 * @file
 * Early-stage design-space exploration — the paper's motivating
 * scenario ("Which IPs should my SoC include and roughly how big?").
 * Enumerates candidate SoC designs over parameter grids, evaluates a
 * set of must-run usecases (the paper stresses the average is
 * immaterial: every usecase must run acceptably, so the score is the
 * MINIMUM attainable performance across usecases), attaches a simple
 * cost model, and extracts the Pareto frontier.
 *
 * exploreFrontier() is the one grid path. Evaluation runs on
 * per-worker GablesPack<kGridWidth> instances (one per usecase): each
 * pass stages kGridWidth designs, and a lane only restages the knobs
 * whose digit changed, instead of rebuilding a SocSpec per knob per
 * design. By default it also prunes with monotonicity bounds:
 * Pattainable is nondecreasing in Ai, Bi, and Bpeak, so one
 * evaluation at a subgrid's max corner upper-bounds every design
 * inside it, and the linear cost model's min corner lower-bounds
 * their cost — a subgrid whose best possible point is strictly
 * dominated by the incumbent frontier is skipped without evaluating
 * its designs. The pruned frontier is provably identical to the
 * unpruned one (skipped designs are strictly dominated, and strict
 * domination is inherited through the incumbent set); the tests
 * check both, member by member, against a brute-force oracle that
 * builds and scores every design with GablesModel::evaluate().
 */

#ifndef GABLES_ANALYSIS_EXPLORER_H
#define GABLES_ANALYSIS_EXPLORER_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/gables.h"
#include "parallel/parallel_for.h"

namespace gables {

/**
 * Linear cost model for a candidate SoC: silicon-area-like cost for
 * compute and wire/PHY-like cost for bandwidth.
 */
struct CostModel {
    /** Cost per unit of total acceleration sum(Ai). */
    double costPerAcceleration = 1.0;
    /** Cost per byte/s of off-chip bandwidth Bpeak. */
    double costPerBpeak = 0.0;
    /** Cost per byte/s of summed IP link bandwidth sum(Bi). */
    double costPerIpBandwidth = 0.0;

    /** Evaluate the cost of a design. */
    double cost(const SocSpec &soc) const;

    /**
     * @return The cost per unit of input @p p: costPerBpeak for
     * Bpeak, costPerAcceleration for A[i], costPerIpBandwidth for
     * B[i]; nothing for Ppeak and the usecase inputs, which the model
     * does not price.
     */
    std::optional<double> per(Param p) const;

    /** Same arithmetic on raw hardware arrays (allocation-free form
     * used by the explorer's hot loop; cost(SocSpec) delegates here,
     * so both produce bit-identical values). */
    double cost(double bpeak, const std::vector<IpSpec> &ips) const;
};

/** One evaluated design: a member of the Pareto frontier. */
struct Candidate {
    /** The design. */
    SocSpec soc;
    /** Minimum attainable performance across the usecase set. */
    double minPerf = 0.0;
    /** Per-usecase attainable performance, usecase order preserved. */
    std::vector<double> perUsecase;
    /** Cost under the explorer's cost model. */
    double cost = 0.0;
};

/** Tuning knobs for exploreFrontier(). */
struct ExploreOptions {
    /** Worker count (1 = serial, 0 = hardware concurrency). */
    int jobs = 1;
    /** Enable bound-based subgrid pruning (the frontier is identical
     * either way; pruning only skips work). False evaluates every
     * design. */
    bool prune = true;
    /** Flat enumeration indices per pruning subgrid. */
    size_t subgridSize = 256;
};

/** Work accounting of one exploreFrontier() run, for the model.*
 * telemetry counters. */
struct ExploreStats {
    /** Model evaluations performed: designs x usecases, plus one
     * max-corner probe per usecase per tested subgrid, plus one
     * re-evaluation per usecase per frontier member when the final
     * candidates are materialized. */
    uint64_t evals = 0;
    /** Model evaluations skipped via subgrid bounds. */
    uint64_t evalsPruned = 0;
    /** Subgrids skipped whole. */
    uint64_t subgridsSkipped = 0;
    /** Worker count and busy time of the evaluation loops. */
    parallel::ForStats forStats;
};

/**
 * Grid-enumeration design-space explorer.
 */
class DesignExplorer
{
  public:
    /**
     * @param base      Template design; enumerated knobs override it.
     * @param usecases  Must-run usecases (all evaluated per design).
     * @param cost      Cost model.
     * @throws FatalError for no usecases, or one that breaks the pair
     *         rule (checkPair()).
     */
    DesignExplorer(SocSpec base, std::vector<Usecase> usecases,
                   CostModel cost);

    /**
     * Enumerate input @p p over @p values. The bounds and the cost
     * model cover the inputs the cost model prices: Bpeak, A[i] for
     * i >= 1 (the paper fixes A0 = 1) and B[i]. Each value must obey
     * the input's rule (core/param.h; Ai with the base design's
     * Ppeak), checked here as the packs would check it (owner
     * "evaluator"), so a bad value is refused whatever the run's
     * options.
     *
     * @throws FatalError for an empty list, any other input, an IP
     *         the base design does not have, or a value its rule
     *         refuses; nothing is registered then.
     */
    void sweep(Param p, std::vector<double> values);

    /** @name sweep() of one input, kept for source compatibility */
    /** @{ */
    void sweepBpeak(std::vector<double> values)
    {
        sweep(Param::bpeak(), std::move(values));
    }
    void sweepAcceleration(size_t ip, std::vector<double> values)
    {
        sweep(Param::acceleration(ip), std::move(values));
    }
    void sweepIpBandwidth(size_t ip, std::vector<double> values)
    {
        sweep(Param::ipBandwidth(ip), std::move(values));
    }
    /** @} */

    /**
     * The Pareto frontier (max minPerf, min cost) of the full cross
     * product of all registered sweeps, knob 0 varying fastest. With
     * pruning (the default), dominated regions of the grid are
     * skipped without evaluating their designs, so only a fraction of
     * the cross product is ever computed on large grids. The returned
     * frontier — member set, every Candidate field, and order — is
     * the same for any options; pruning and workers only change how
     * much work is done and where.
     *
     * @param options Worker count and pruning knobs.
     * @param stats   Optional out: evaluation/pruning work counters.
     * @return Pareto frontier, sorted by ascending cost (equal costs
     *         in enumeration order).
     * @throws FatalError when the cost model can overflow on this
     *         grid: with every priced term at its largest value, the
     *         sum of |coefficient| x term is not finite.
     */
    std::vector<Candidate>
    exploreFrontier(const ExploreOptions &options = {},
                    ExploreStats *stats = nullptr) const;

    /** @return Number of designs in the cross product of the
     * registered sweeps. */
    size_t gridSize() const;

  private:
    /** A swept input and the grid values it takes (knob 0 varies
     * fastest in enumeration order). */
    struct Knob {
        Param param;
        std::vector<double> values;
    };

    /** Score of one design: its flat enumeration index, minimum
     * attainable performance across the usecases, and cost. */
    struct Point {
        size_t flat;
        double minPerf;
        double cost;
    };

    /** Per-worker state for packs of W designs (defined in
     * explorer.cc). */
    template <size_t W> struct Lanes;

    template <size_t W> Lanes<W> makeLanes() const;
    /** Stage flat indices [p0, p0 + cnt) onto lanes 0..cnt-1, run
     * every pack, and score lane w into @p out[w]. */
    template <size_t W>
    void runLanes(Lanes<W> &ls, size_t p0, size_t cnt, Point *out) const;
    /** Fill @p out with the design and per-usecase detail of lane
     * @p w from the last runLanes(), scored @p p. */
    template <size_t W>
    void materialize(Lanes<W> &ls, size_t w, const Point &p,
                     Candidate &out) const;
    /** @throws FatalError when some design's cost can overflow (the
     * Pareto order needs every cost finite). */
    void checkCostFinite() const;

    SocSpec base_;
    std::vector<Usecase> usecases_;
    CostModel cost_;
    std::vector<Knob> knobs_;
    /** True when two knobs drive the same input: the later one
     * overrides the earlier per design, so the term's value depends
     * on applying every knob in order. Per-knob bounds and the
     * unchanged-digit skip are both off then. */
    bool sharedTargets_ = false;
};

} // namespace gables

#endif // GABLES_ANALYSIS_EXPLORER_H
