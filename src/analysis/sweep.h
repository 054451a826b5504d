/**
 * @file
 * Parameter sweeps over the Gables model — the workhorse behind the
 * paper's Figure 6 progression and Figure 8 mixing curves, and the
 * data source for all line plots.
 */

#ifndef GABLES_ANALYSIS_SWEEP_H
#define GABLES_ANALYSIS_SWEEP_H

#include <functional>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/gables.h"
#include "parallel/parallel_for.h"

namespace gables {

/** A named (x, y) series, the unit of plotting. */
struct Series {
    /** Display label, e.g. "I = 64". */
    std::string label;
    /** Abscissae. */
    std::vector<double> x;
    /** Ordinates, index-aligned with x. */
    std::vector<double> y;
};

/**
 * Sweep drivers producing Series from the model.
 *
 * Every driver evaluates its grid with the parallel worker-pool
 * layer: @p jobs = 1 (the default) is the legacy serial path, 0
 * means hardware concurrency. Output is byte-identical for any job
 * count — points are written into pre-sized slots and exceptions
 * surface from the lowest failing index, exactly as a serial loop.
 * When @p stats is non-null it receives the worker count and
 * per-worker busy time for telemetry RunReports.
 *
 * The model drivers (mixing, param) run on per-worker
 * GablesPack<kGridWidth> instances: the (SoC, usecase) pair is
 * compiled once, each worker's pack evaluates kGridWidth grid points
 * per pass, and each pass stages one parameter row instead of
 * rebuilding a spec copy per point. Lanes are written into pre-sized
 * slots, so the output is bit-identical to the per-point
 * GablesModel::evaluate() path for any job count.
 */
class Sweep
{
  public:
    /**
     * Two-IP mixing sweep (paper Figure 8): vary the fraction f of
     * work at IP[1] over @p fractions, holding intensities fixed,
     * and report performance normalized to the f = 0 point.
     *
     * @param soc        A SoC with at least two IPs; work moves
     *                   between IP[0] and IP[1].
     * @param i0         Operational intensity at IP[0].
     * @param i1         Operational intensity at IP[1].
     * @param fractions  Values of f in [0, 1].
     * @param normalize  If true (paper's Figure 8), divide by the
     *                   performance at f = 0 with intensity i0.
     * @param jobs       Worker count (1 = serial, 0 = hardware).
     * @param stats      Optional out: worker count and busy time.
     */
    static Series mixing(const SocSpec &soc, double i0, double i1,
                         const std::vector<double> &fractions,
                         bool normalize = true, int jobs = 1,
                         parallel::ForStats *stats = nullptr);

    /**
     * Sweep one model input over @p values for a fixed pair, holding
     * everything else fixed, and report attainable performance. The
     * label is the input's name plus " sweep" (e.g. "Bpeak sweep",
     * "I[1] sweep"). Bpeak asks the Figure 6b->6c question ("is more
     * DRAM bandwidth the fix?"), I[i] the Figure 6c->6d one ("what
     * does data reuse buy?"), A[i] the over-design question of paper
     * conjecture 3.
     *
     * @throws FatalError for A0, which the paper fixes at 1, and for
     *         values the model rejects.
     */
    static Series param(const SocSpec &soc, const Usecase &usecase,
                        Param p, const std::vector<double> &values,
                        int jobs = 1,
                        parallel::ForStats *stats = nullptr);

    /**
     * Generic sweep: apply @p evaluate to each x and record the
     * result.
     */
    static Series
    custom(const std::string &label, const std::vector<double> &xs,
           const std::function<double(double)> &evaluate, int jobs = 1,
           parallel::ForStats *stats = nullptr);

  private:
    /** Shared grid driver: y[i] = evaluate(xs[i]) in parallel. */
    static Series fill(std::string label, const std::vector<double> &xs,
                       const std::function<double(double)> &evaluate,
                       int jobs, parallel::ForStats *stats);

    /**
     * Pack-backed grid driver: compiles (soc, seed) once, copies it
     * into one pack per pool worker, and evaluates the grid
     * kGridWidth points per pass. stage(pack, xs, cnt) bulk-stages one
     * batch of grid values (one indirect call and one row store per
     * pack, not per point), the pack evaluates all lanes, and y[i] =
     * attainable(lane) / divisor. @p divisor is 1.0 for raw sweeps
     * (x / 1.0 is exact) and the normalization base for mixing.
     */
    static Series
    fillWith(std::string label, const SocSpec &soc, const Usecase &seed,
             const std::vector<double> &xs,
             const std::function<void(GablesPack<kGridWidth> &,
                                      const double *, size_t)> &stage,
             double divisor, int jobs, parallel::ForStats *stats);
};

} // namespace gables

#endif // GABLES_ANALYSIS_SWEEP_H
