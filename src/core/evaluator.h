/**
 * @file
 * Compiled evaluation of the base Gables model, for single points
 * (advisor probes, the optimal split, the serve cache) and for grids
 * (sweeps, design-space exploration, sensitivity and robustness
 * sampling).
 *
 * GablesModel::evaluate() re-validates its inputs, re-derives every
 * per-IP term, and heap-allocates a GablesResult on every call.
 * GablesPack<W> compiles a (SocSpec, Usecase) pair once into W
 * independent lanes of structure-of-arrays state and exposes
 * single-parameter mutators, so a grid point updates one term instead
 * of rebuilding the pair. Evaluation is allocation-free in steady
 * state, and every number is bit-identical to GablesModel::evaluate()
 * (verified by property tests). W = 1 is the single-point evaluator;
 * the grid drivers run W = kGridWidth points per pass.
 *
 * Thread-safety: a pack is mutable state; use one instance per worker
 * (the parallel drivers build one per pool worker).
 */

#ifndef GABLES_CORE_EVALUATOR_H
#define GABLES_CORE_EVALUATOR_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/gables.h"
#include "util/logging.h"

namespace gables {

/** Lanes per pack on the grid drivers. 8 keeps a row of doubles in
 * one 64-byte cache line and gives the vectorizer several vectors per
 * inner loop at any x86-64 ISA level. */
inline constexpr size_t kGridWidth = 8;

/**
 * W independent model evaluations batched for auto-vectorization.
 *
 * The pack holds W points as structure-of-arrays rows of W lanes each
 * (row-major [ip][lane]), so the per-IP recompute and the reductions
 * of paper Eqs. 5-8 and 12-14 run as fixed-trip-count inner loops
 * over contiguous doubles — the shape `-O3` auto-vectorizes with no
 * intrinsics.
 *
 * Bit-identity contract: every lane produces the bits
 * GablesModel::evaluate() produces for the same parameters. Two rules
 * make that hold:
 *  - per-lane arithmetic uses the model's expressions and operand
 *    order (its one branch, fi > 0, is replaced by a divisor the
 *    mutators pin, which is value- and bit-exact in all cases,
 *    including Ii = inf and idle lanes);
 *  - reductions keep each lane's chain in IP index order — the
 *    vectorized loops batch *across* lanes (w) and never reassociate
 *    *within* a lane (i).
 * The property-fuzz suite enforces this bitwise.
 */
template <size_t W>
class GablesPack
{
    static_assert(W >= 1, "a pack needs at least one lane");

  public:
    /** Lanes per pack. */
    static constexpr size_t kWidth = W;

    /**
     * Compile the pair into every lane. Validates both once (the same
     * checks every GablesModel::evaluate() call performs).
     *
     * @throws FatalError on mismatched sizes or invalid specs.
     */
    GablesPack(const SocSpec &soc, const Usecase &usecase);

    /** A pack whose every lane is a copy of lane 0 of @p src. */
    template <size_t V>
        requires(V != W)
    explicit GablesPack(const GablesPack<V> &src)
    {
        broadcast(src);
    }

    /**
     * Reset every lane to a copy of lane 0 of @p src (no allocation
     * when the IP count is unchanged). evalCount() carries over.
     */
    template <size_t V>
    void broadcast(const GablesPack<V> &src)
    {
        reset(src.n_);
        ppeak_.fill(src.ppeak_[0]);
        bpeak_.fill(src.bpeak_[0]);
        for (size_t i = 0; i < n_; ++i) {
            const size_t s = i * V;
            fillRow(i, src.accel_[s], src.bandwidth_[s],
                    src.fraction_[s], src.intensity_[s]);
        }
    }

    /** @return Number of IPs N (identical in every lane). */
    size_t numIps() const { return n_; }

    /** @name Current parameter values of one lane */
    /** @{ */
    double ppeak(size_t lane) const
    {
        checkLane(lane);
        return ppeak_[lane];
    }
    double bpeak(size_t lane) const
    {
        checkLane(lane);
        return bpeak_[lane];
    }
    double acceleration(size_t lane, size_t i) const
    {
        return accel_.at(row(lane, i));
    }
    double ipBandwidth(size_t lane, size_t i) const
    {
        return bandwidth_.at(row(lane, i));
    }
    double fraction(size_t lane, size_t i) const
    {
        return fraction_.at(row(lane, i));
    }
    double intensity(size_t lane, size_t i) const
    {
        return intensity_.at(row(lane, i));
    }
    /** @} */

    /**
     * @name Per-lane single-parameter mutators
     *
     * @p lane < W selects the point. Values are checked with the
     * invariants the SocSpec/Usecase constructors enforce (positive
     * finite hardware parameters, non-negative fractions, positive
     * intensity wherever work is assigned); the fractions-sum-to-one
     * invariant is the caller's contract, since drivers set several
     * fractions in sequence. A rejected value leaves the pack
     * untouched. Mutations are buffered — run() recomputes only rows
     * a mutation touched. Defined inline: drivers stage one mutation
     * per lane per point, so the call is on the critical path.
     */
    /** @{ */
    /** Replace Ppeak (rescales every IP's compute roof). */
    void setPpeak(size_t lane, double ppeak)
    {
        checkLane(lane);
        if (!(ppeak > 0.0) || std::isinf(ppeak))
            fatal("evaluator: Ppeak must be positive and finite");
        ppeak_[lane] = ppeak;
        markDirty(0, n_);
    }

    /** Replace the off-chip bandwidth Bpeak. */
    void setBpeak(size_t lane, double bpeak)
    {
        checkLane(lane);
        checkBpeak(bpeak);
        // Memory time is derived at run(), so no row changes.
        bpeak_[lane] = bpeak;
    }

    /** Replace IP @p i's acceleration Ai (A0 must stay 1). */
    void setAcceleration(size_t lane, size_t i, double acceleration)
    {
        checkLane(lane);
        checkIp(i);
        checkAcceleration(i, acceleration);
        accel_[i * W + lane] = acceleration;
        markDirty(i, i + 1);
    }

    /** Replace IP @p i's link bandwidth Bi. */
    void setIpBandwidth(size_t lane, size_t i, double bandwidth)
    {
        checkLane(lane);
        checkIp(i);
        checkBandwidth(i, bandwidth);
        bandwidth_[i * W + lane] = bandwidth;
        markDirty(i, i + 1);
    }

    /** Replace the work fraction fi at IP @p i. */
    void setFraction(size_t lane, size_t i, double fraction)
    {
        checkLane(lane);
        checkIp(i);
        setWork(lane, i, fraction, intensity_[i * W + lane]);
    }

    /** Replace the operational intensity Ii at IP @p i. */
    void setIntensity(size_t lane, size_t i, double intensity)
    {
        checkLane(lane);
        checkIp(i);
        const size_t r = i * W + lane;
        checkIntensity(i, fraction_[r], intensity);
        intensity_[r] = intensity;
        intensityEff_[r] = fraction_[r] > 0.0 ? intensity : 1.0;
        markDirty(i, i + 1);
    }

    /** Replace both work terms of IP @p i. */
    void setWork(size_t lane, size_t i, double fraction, double intensity)
    {
        checkLane(lane);
        checkIp(i);
        checkWork(i, fraction, intensity);
        const size_t r = i * W + lane;
        fraction_[r] = fraction;
        intensity_[r] = intensity;
        intensityEff_[r] = fraction > 0.0 ? intensity : 1.0;
        markDirty(i, i + 1);
    }
    /** @} */

    /**
     * @name Bulk row staging
     *
     * Set one parameter across the first @p cnt lanes from an array
     * — one call stages a whole batch of grid points. Validation is
     * identical to the per-lane mutators, applied in lane order (the
     * first invalid lane produces the same fatal()). Lanes >= cnt
     * keep their previous values.
     */
    /** @{ */
    void setFractionRow(size_t i, const double *fractions, size_t cnt);
    void setIntensityRow(size_t i, const double *intensities,
                         size_t cnt);
    void setAccelerationRow(size_t i, const double *accelerations,
                            size_t cnt);
    void setIpBandwidthRow(size_t i, const double *bandwidths,
                           size_t cnt);
    /** Per-lane Bpeak from an array (no row recompute needed). */
    void setBpeakLanes(const double *bpeaks, size_t cnt);
    /** @} */

    /**
     * Evaluate all lanes: recompute dirty rows, reduce, and cache
     * per-lane attainable performance. Lanes past @p activeLanes are
     * still computed (they hold stale-but-valid parameters) but are
     * not counted.
     *
     * @param activeLanes Number of lanes carrying real points; added
     *        to evalCount().
     */
    void run(size_t activeLanes = W);

    /** @return Attainable performance (paper Eq. 11) of @p lane from
     * the last run(). */
    double attainable(size_t lane) const { return att_.at(lane); }

    /** @return Bottleneck attribution of @p lane: -1 for memory, else
     * the bottleneck IP. Memory wins ties, then the lowest IP index —
     * the contract of GablesModel::evaluate(). Needs a run() after
     * the last row mutation. */
    int bottleneckIp(size_t lane) const;

    /**
     * Full result of @p lane, with per-IP detail, into a caller-owned
     * scratch result (no allocation once the scratch is warm). Every
     * field matches GablesModel::evaluate() bit-for-bit. Needs a
     * run() after the last row mutation; not counted in evalCount().
     */
    void evaluate(size_t lane, GablesResult &out) const;

    /**
     * Per-lane sums of the acceleration and link-bandwidth rows,
     * each accumulated in IP index order — the order
     * CostModel::cost() visits the IPs, so a linear cost computed
     * from these sums matches it bit-for-bit. Reads the staged
     * parameters directly (no run() required).
     *
     * @param accelSums Out: W sums of Ai per lane.
     * @param bwSums    Out: W sums of Bi per lane.
     */
    void paramSums(double *accelSums, double *bwSums) const;

    /**
     * @return Evaluations served (active lanes across run() calls),
     * for the model.evals telemetry counters (sum per-worker counts;
     * the total is scheduling-independent).
     */
    uint64_t evalCount() const { return evals_; }

  private:
    template <size_t> friend class GablesPack;

    size_t row(size_t lane, size_t i) const
    {
        checkLane(lane);
        return i * W + lane;
    }

    void checkLane(size_t lane) const
    {
        if (lane >= W)
            fatal("evaluator: pack lane " + std::to_string(lane) +
                  " out of range (W=" + std::to_string(W) + ")");
    }

    void checkIp(size_t i) const
    {
        if (i >= n_)
            fatal("evaluator: IP index " + std::to_string(i) +
                  " out of range (N=" + std::to_string(n_) + ")");
    }

    /** @name Value checks shared by the per-lane and row setters */
    /** @{ */
    static void checkBpeak(double bpeak)
    {
        if (!(bpeak > 0.0) || std::isinf(bpeak))
            fatal("evaluator: Bpeak must be positive and finite");
    }

    static void checkAcceleration(size_t i, double acceleration)
    {
        if (!(acceleration > 0.0) || std::isinf(acceleration))
            fatal("evaluator: IP[" + std::to_string(i) +
                  "] acceleration must be positive and finite");
        if (i == 0 && acceleration != 1.0)
            fatal("evaluator: IP[0] acceleration A0 must be 1 "
                  "(paper Section III-D)");
    }

    static void checkBandwidth(size_t i, double bandwidth)
    {
        if (!(bandwidth > 0.0) || std::isinf(bandwidth))
            fatal("evaluator: IP[" + std::to_string(i) +
                  "] bandwidth must be positive and finite");
    }

    static void checkIntensity(size_t i, double fraction, double intensity)
    {
        if (fraction > 0.0 && !(intensity > 0.0))
            fatal("evaluator: intensity I[" + std::to_string(i) +
                  "] must be > 0 where work is assigned");
    }

    static void checkWork(size_t i, double fraction, double intensity)
    {
        if (!(fraction >= 0.0) || std::isinf(fraction))
            fatal("evaluator: fraction f[" + std::to_string(i) +
                  "] must be in [0, 1]");
        checkIntensity(i, fraction, intensity);
    }
    /** @} */

    static void checkCount(size_t cnt)
    {
        if (cnt > W)
            fatal("evaluator: bulk lane count " + std::to_string(cnt) +
                  " exceeds pack width W=" + std::to_string(W));
    }

    void markDirty(size_t lo, size_t hi)
    {
        dirtyLo_ = std::min(dirtyLo_, lo);
        dirtyHi_ = std::max(dirtyHi_, hi);
    }

    /** Size the rows for @p n IPs and mark every row dirty. */
    void reset(size_t n);
    /** Set every lane of IP row @p i. */
    void fillRow(size_t i, double acceleration, double bandwidth,
                 double fraction, double intensity);

    size_t n_ = 0;

    // Per-lane scalars.
    std::array<double, W> ppeak_{};
    std::array<double, W> bpeak_{};

    // Parameter rows, row-major [i * W + lane].
    std::vector<double> accel_;
    std::vector<double> bandwidth_;
    std::vector<double> fraction_;
    std::vector<double> intensity_;
    // The divisor run() actually uses for dataBytes: the raw
    // intensity where fraction > 0, and a harmless 1.0 on idle lanes
    // (where the raw value may legally be <= 0 and f/I would produce
    // -0.0 or NaN instead of the model's literal 0.0; 0/1 yields the
    // identical +0.0 bits). Maintained at mutation time so run()'s
    // inner loop is pure branch-free arithmetic, while intensity_
    // keeps the raw value for validation.
    std::vector<double> intensityEff_;

    // Derived rows (the terms the reductions consume).
    std::vector<double> dataBytes_;
    std::vector<double> time_;

    // Per-lane reductions over the rows, cached across run() calls
    // until a mutation dirties a row (Bpeak-only grids never
    // recompute them).
    std::array<double, W> totalBytes_{};
    std::array<double, W> maxIpTime_{};

    // Per-lane attainable performance of the last run().
    std::array<double, W> att_{};

    // Rows [dirtyLo_, dirtyHi_) may have changed since the last run()
    // (none when dirtyLo_ >= dirtyHi_), in every lane. Recomputing a
    // clean row reproduces identical bits, so over-recompute is
    // harmless and keeps the inner loops branch-free.
    size_t dirtyLo_ = 0;
    size_t dirtyHi_ = 0;

    uint64_t evals_ = 0;
};

// run() and the row setters are compiled once, in evaluator.cc, under
// the evaluator vectorization flags.
extern template class GablesPack<1>;
extern template class GablesPack<kGridWidth>;

} // namespace gables

#endif // GABLES_CORE_EVALUATOR_H
