/**
 * @file
 * The mixing sweep over the Gables model — the paper's Figure 8
 * curves, and the data source for the line plots.
 */

#ifndef GABLES_ANALYSIS_SWEEP_H
#define GABLES_ANALYSIS_SWEEP_H

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
 * The Figure 8 mixing sweep, producing a Series from the model.
 *
 * The grid runs on the parallel worker-pool layer: @p jobs = 1 (the
 * default) is the serial path, 0 means hardware concurrency. Output
 * is byte-identical for any job count: points are written into
 * pre-sized slots and exceptions surface from the lowest failing
 * index, exactly as a serial loop. When @p stats is non-null it
 * receives the worker count and per-worker busy time for telemetry
 * RunReports.
 *
 * Each worker evaluates on its own GablesPack<kGridWidth>: the
 * (SoC, usecase) pair is compiled once, each pass evaluates
 * kGridWidth grid points, and each pass stages the two fraction rows
 * instead of rebuilding a usecase per point. The output is
 * bit-identical to the per-point GablesModel::evaluate() path.
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
     * @param fractions  Values of f in [0, 1]; they become the
     *                   series' x, so a caller that no longer needs
     *                   them moves them in instead of copying.
     * @param normalize  If true (paper's Figure 8), divide by the
     *                   performance at f = 0 with intensity i0.
     * @param jobs       Worker count (1 = serial, 0 = hardware).
     * @param stats      Optional out: worker count and busy time.
     */
    static Series mixing(const SocSpec &soc, double i0, double i1,
                         std::vector<double> fractions,
                         bool normalize = true, int jobs = 1,
                         parallel::ForStats *stats = nullptr);
};

} // namespace gables

#endif // GABLES_ANALYSIS_SWEEP_H
