/**
 * @file
 * Inverse design: the paper's early-stage question ("which IPs and
 * roughly how big?") answered constructively. Given a portfolio of
 * usecases with required performance (or frame-rate) targets, start
 * from a generously over-provisioned design and shrink every knob —
 * Bpeak, each Bi, each Ai — to the smallest value that still meets
 * every target, iterating to a fixpoint. The result is a minimal
 * (up to tolerance) design in the spirit of Figure 6d's "sufficient
 * 20 GB/s", generalized to all knobs and many usecases at once.
 */

#ifndef GABLES_ANALYSIS_PROVISIONER_H
#define GABLES_ANALYSIS_PROVISIONER_H

#include <string>
#include <vector>

#include "core/gables.h"

namespace gables {

/** One requirement: a usecase and its minimum performance. */
struct Requirement {
    /** The usecase (index-aligned with the design's IPs). */
    Usecase usecase;
    /** Required attainable performance (ops/s), > 0. */
    double minPerf = 0.0;
};

/** The provisioning result. */
struct ProvisionedDesign {
    /** @param initial The design the result starts from. */
    explicit ProvisionedDesign(SocSpec initial) : soc(std::move(initial))
    {}

    /** The minimized design. */
    SocSpec soc;
    /** True if the starting design met all targets (otherwise no
     * amount of shrinking helps and `soc` echoes the input). */
    bool feasible = false;
    /** Per-requirement attainable performance on the final design. */
    std::vector<double> achieved;
    /** Fixpoint iterations used. */
    int iterations = 0;
};

/**
 * The shrink-to-fit provisioner.
 */
class Provisioner
{
  public:
    /** Relative tolerance: each knob is minimized until a further
     * (1 - tol) scaling would violate a target. */
    static constexpr double kTolerance = 1e-3;
    /** Fixpoint iteration cap. */
    static constexpr int kMaxIterations = 8;
    /** Every Ai stays >= this floor (A0 is pinned to 1). */
    static constexpr double kMinAcceleration = 0.1;

    /**
     * Minimize @p start subject to every requirement.
     *
     * @param start        An over-provisioned starting design; every
     *                     requirement must already be met by it.
     * @param requirements Usecases and their ops/s targets.
     */
    static ProvisionedDesign minimize(const SocSpec &start,
                                      const std::vector<Requirement>
                                          &requirements);

    /** @return True if @p soc meets every requirement. */
    static bool meetsAll(const SocSpec &soc,
                         const std::vector<Requirement> &requirements);
};

} // namespace gables

#endif // GABLES_ANALYSIS_PROVISIONER_H
