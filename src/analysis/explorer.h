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
 * Evaluation runs on per-worker GablesPack<kGridWidth> instances
 * (one per usecase): each pass stages kGridWidth designs, and a lane
 * only restages the knobs whose digit changed, instead of rebuilding a
 * SocSpec per knob per design. exploreFrontier() additionally prunes
 * with monotonicity bounds: Pattainable is nondecreasing in Ai, Bi,
 * and Bpeak, so one evaluation at a subgrid's max corner upper-bounds
 * every design inside it, and the linear cost model's min corner
 * lower-bounds their cost — a subgrid whose best possible point is
 * strictly dominated by the incumbent frontier is skipped without
 * evaluating its designs. The frontier is provably identical to the
 * unpruned one (skipped designs are strictly dominated, and strict
 * domination is inherited through the incumbent set).
 */

#ifndef GABLES_ANALYSIS_EXPLORER_H
#define GABLES_ANALYSIS_EXPLORER_H

#include <cstdint>
#include <string>
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

    /** Same arithmetic on raw hardware arrays (allocation-free form
     * used by the explorer's hot loop; cost(SocSpec) delegates here,
     * so both produce bit-identical values). */
    double cost(double bpeak, const std::vector<IpSpec> &ips) const;
};

/** One evaluated candidate design. */
struct Candidate {
    /** The design. */
    SocSpec soc;
    /** Minimum attainable performance across the usecase set. */
    double minPerf = 0.0;
    /** Per-usecase attainable performance, usecase order preserved. */
    std::vector<double> perUsecase;
    /** Cost under the explorer's cost model. */
    double cost = 0.0;
    /** True if no other candidate dominates it (set by explore()). */
    bool pareto = false;
};

/** Tuning knobs for exploreFrontier(). */
struct ExploreOptions {
    /** Worker count (1 = serial, 0 = hardware concurrency). */
    int jobs = 1;
    /** Enable bound-based subgrid pruning (the frontier is identical
     * either way; pruning only skips work). */
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
     */
    DesignExplorer(SocSpec base, std::vector<Usecase> usecases,
                   CostModel cost);

    /** Enumerate Bpeak over these values (bytes/s). */
    void sweepBpeak(std::vector<double> values);

    /** Enumerate IP @p ip's acceleration over these values. */
    void sweepAcceleration(size_t ip, std::vector<double> values);

    /** Enumerate IP @p ip's link bandwidth over these values. */
    void sweepIpBandwidth(size_t ip, std::vector<double> values);

    /**
     * Evaluate the full cross product of all registered sweeps and
     * mark the Pareto-optimal (max perf, min cost) candidates.
     *
     * Candidate evaluation and Pareto marking run on the parallel
     * worker-pool layer; results are byte-identical for any @p jobs
     * (candidates land in enumeration-order slots before sorting).
     *
     * @param jobs  Worker count (1 = legacy serial, 0 = hardware).
     * @param stats Optional out: worker count and busy time of the
     *              candidate-evaluation loop.
     * @return All candidates, Pareto members flagged, sorted by
     *         descending minPerf (stable: enumeration order breaks
     *         ties).
     */
    std::vector<Candidate>
    explore(int jobs = 1, parallel::ForStats *stats = nullptr) const;

    /**
     * The Pareto frontier only, with bound-based subgrid pruning:
     * dominated regions of the grid are skipped without evaluating
     * their designs, so only a fraction of the cross product is ever
     * computed on large grids. The returned frontier — member set,
     * every Candidate field, and order — is identical to
     * frontier(explore(jobs)) for any options (verified by golden
     * and property tests); pruning only changes how much work is
     * done.
     *
     * @param options Worker count and pruning knobs.
     * @param stats   Optional out: evaluation/pruning work counters.
     * @return Pareto frontier, sorted by ascending cost.
     */
    std::vector<Candidate>
    exploreFrontier(const ExploreOptions &options = {},
                    ExploreStats *stats = nullptr) const;

    /** @return Number of candidate designs explore() will evaluate. */
    size_t gridSize() const;

    /** @return Only the Pareto frontier, sorted by ascending cost. */
    static std::vector<Candidate>
    frontier(const std::vector<Candidate> &candidates);

  private:
    /** A swept parameter: which model term it drives and the grid
     * values it takes (knob 0 varies fastest in enumeration order). */
    struct Knob {
        enum class Kind { Bpeak, Acceleration, IpBandwidth };
        Kind kind;
        size_t ip; // unused for Bpeak
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
    /** Apply knob value @p v to lane @p w of every pack. */
    template <size_t W>
    static void applyKnob(Lanes<W> &ls, size_t w, const Knob &knob,
                          double v);
    /** @return True if two knobs drive the same model term (later
     * application overrides earlier; bounds would be wrong). */
    bool hasDuplicateKnobTargets() const;

    SocSpec base_;
    std::vector<Usecase> usecases_;
    CostModel cost_;
    std::vector<Knob> knobs_;
};

} // namespace gables

#endif // GABLES_ANALYSIS_EXPLORER_H
