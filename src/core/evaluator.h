/**
 * @file
 * Compiled evaluation of the base Gables model for grids: sweeps,
 * design-space exploration, sensitivity and robustness sampling, and
 * the single-point probes of the advisor and the optimal split.
 *
 * GablesModel::evaluate() re-derives every per-IP term and builds a
 * full GablesResult on every call; it is the one place a
 * GablesResult is built. GablesPack<W> compiles a (SocSpec, Usecase)
 * pair once into W independent lanes of structure-of-arrays state
 * and sets one input (a Param) per lane, checked with the same rules
 * of core/param.h that building the pair applies, so a grid point
 * updates one term instead of rebuilding the pair. Per lane it
 * reports only attainable performance and the bottleneck IP.
 * Evaluation is allocation-free in steady state, and both numbers are
 * bit-identical to GablesModel::evaluate() (verified by property
 * tests). W = 1 is the single-point evaluator; the grid drivers run
 * W = kGridWidth points per pass.
 *
 * Thread-safety: a pack is mutable state; use one instance per worker
 * (the parallel drivers build one per pool worker).
 */

#ifndef GABLES_CORE_EVALUATOR_H
#define GABLES_CORE_EVALUATOR_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/param.h"
#include "core/soc_spec.h"
#include "core/usecase.h"

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
 *    setters pin, which is value- and bit-exact in all cases,
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
     * Compile the pair into every lane. Both are valid by
     * construction, so only the pair rule (checkPair()) is checked.
     *
     * @throws FatalError on mismatched sizes.
     */
    GablesPack(const SocSpec &soc, const Usecase &usecase);

    /** @return Number of IPs N (identical in every lane). */
    size_t numIps() const { return n_; }

    /** @return Input @p p of @p lane (p.ip < numIps() for the per-IP
     * kinds). Always inlined, as set() is: the explorer reads every
     * lane's Bpeak for its cost. */
    [[gnu::always_inline]] double get(size_t lane, Param p) const
    {
        checkLane(lane);
        if (p.perIp())
            checkIp(p.ip);
        const size_t r = p.ip * W + lane;
        switch (p.kind) {
        case Param::Kind::Ppeak:
            return ppeak_[lane];
        case Param::Kind::Bpeak:
            return bpeak_[lane];
        case Param::Kind::Acceleration:
            return accel_[r];
        case Param::Kind::IpBandwidth:
            return bandwidth_[r];
        case Param::Kind::Fraction:
            return fraction_[r];
        case Param::Kind::Intensity:
            return intensity_[r];
        }
        return 0.0;
    }

    /**
     * Replace input @p p of one lane.
     *
     * @p lane < W selects the point. The value is checked with the
     * rules of core/param.h that the SocSpec/Usecase constructors
     * apply, as the pack's owner "evaluator" (a new Ppeak or Ai is
     * checked with the lane's other inputs, for the peak Ai * Ppeak;
     * a new fi or Ii with its partner); the fractions-sum-to-one rule
     * is the caller's contract, since drivers set several fractions
     * in sequence. A rejected value leaves the pack untouched.
     * Mutations are buffered: run() recomputes only rows a mutation
     * touched. Always inlined: drivers stage one mutation per lane
     * per point, so the call is on the critical path, and the inliner
     * would otherwise keep a call per lane for a switch that folds to
     * one case.
     */
    [[gnu::always_inline]] void set(size_t lane, Param p, double v)
    {
        checkLane(lane);
        if (p.perIp())
            checkIp(p.ip);
        const size_t i = p.ip;
        const size_t r = i * W + lane;
        switch (p.kind) {
        case Param::Kind::Ppeak:
            // Rescales every IP's compute roof.
            checkPpeakLane(lane, v);
            ppeak_[lane] = v;
            markDirty(0, n_);
            return;
        case Param::Kind::Bpeak:
            // Memory time is derived at run(), so no row changes.
            checkBpeak(kOwner, v);
            bpeak_[lane] = v;
            return;
        case Param::Kind::Acceleration:
            checkAcceleration(kOwner, i, v, ppeak_[lane]);
            accel_[r] = v;
            break;
        case Param::Kind::IpBandwidth:
            checkIpBandwidth(kOwner, i, v);
            bandwidth_[r] = v;
            break;
        case Param::Kind::Fraction:
            setWork(lane, i, v, intensity_[r]);
            return;
        case Param::Kind::Intensity:
            // The lane's fi already passed its rule.
            checkIntensity(kOwner, i, fraction_[r], v);
            intensity_[r] = v;
            intensityEff_[r] = fraction_[r] > 0.0 ? v : 1.0;
            break;
        }
        markDirty(i, i + 1);
    }

    /**
     * Set input @p p across the first @p cnt lanes from an array: one
     * call stages a whole batch of grid points. Validation is that of
     * set(), applied in lane order (the first invalid lane produces
     * the same fatal()). Lanes >= cnt keep their previous values.
     */
    void setLanes(Param p, const double *values, size_t cnt);

    /** Replace both work terms of IP @p i (fi and Ii are checked
     * together). */
    void setWork(size_t lane, size_t i, double fraction, double intensity)
    {
        checkLane(lane);
        checkIp(i);
        checkWork(kOwner, i, fraction, intensity);
        const size_t r = i * W + lane;
        fraction_[r] = fraction;
        intensity_[r] = intensity;
        intensityEff_[r] = fraction > 0.0 ? intensity : 1.0;
        markDirty(i, i + 1);
    }

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
    /** The owner the rules name in a rejected value's message. */
    static constexpr InputOwner kOwner{"evaluator"};

    void checkLane(size_t lane) const
    {
        if (lane >= W)
            rejectInput(kOwner, [lane] {
                return "pack lane " + std::to_string(lane) +
                       " out of range (W=" + std::to_string(W) + ")";
            });
    }

    void checkIp(size_t i) const
    {
        if (i >= n_)
            rejectInput(kOwner, [i, n = n_] {
                return "IP index " + std::to_string(i) +
                       " out of range (N=" + std::to_string(n) + ")";
            });
    }

    static void checkCount(size_t cnt)
    {
        if (cnt > W)
            rejectInput(kOwner, [cnt] {
                return "bulk lane count " + std::to_string(cnt) +
                       " exceeds pack width W=" + std::to_string(W);
            });
    }

    /** Ppeak of @p lane, and the Ai rule of each of the lane's IPs
     * under it (the peak Ai * Ppeak), shared by set() and
     * setLanes(). */
    void checkPpeakLane(size_t lane, double ppeak) const
    {
        checkPpeak(kOwner, ppeak);
        for (size_t i = 0; i < n_; ++i)
            checkAcceleration(kOwner, i, accel_[i * W + lane], ppeak);
    }

    void markDirty(size_t lo, size_t hi)
    {
        dirtyLo_ = std::min(dirtyLo_, lo);
        dirtyHi_ = std::max(dirtyHi_, hi);
    }

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

// run() and setLanes() are compiled once, in evaluator.cc, under
// the evaluator vectorization flags.
extern template class GablesPack<1>;
extern template class GablesPack<kGridWidth>;

} // namespace gables

#endif // GABLES_CORE_EVALUATOR_H
