/**
 * @file
 * A composition layer the paper sketches at the end of Section V-C
 * ("more complex combinations of parallel and serialized work are
 * possible"): a usecase made of weighted phases, each evaluated
 * either with the concurrent base model or with the serialized
 * extension, with total time the sum of phase times.
 *
 * This models real mobile pipelines such as camera HDR+, where a
 * burst-capture phase exercises ISP+IPU concurrently but a final
 * merge/encode phase serializes on one IP.
 */

#ifndef GABLES_CORE_PHASED_H
#define GABLES_CORE_PHASED_H

#include <string>
#include <vector>

#include "core/gables.h"
#include "core/serialized.h"

namespace gables {

/** How the IPs in a phase execute relative to each other. */
enum class PhaseMode {
    /** All IPs active at once, sharing Bpeak (base Gables). */
    Concurrent,
    /** One IP at a time (extension V-C). */
    Exclusive,
};

/** One phase of a phased usecase. */
struct Phase {
    /** Display name (e.g. "capture", "merge"). */
    std::string name;
    /** Fraction of the whole usecase's operations done in this
     * phase; phase weights must sum to 1. */
    double workShare = 0.0;
    /** Execution mode of this phase. */
    PhaseMode mode = PhaseMode::Concurrent;
    /**
     * Work split and intensities *within* the phase (fractions sum
     * to 1 across IPs, as in a standalone usecase).
     */
    Usecase usecase;
};

/** Result of a phased evaluation. */
struct PhasedResult {
    /** Overall upper bound (ops/s). */
    double attainable = 0.0;
    /** Per-phase attainable performance (ops/s of phase work). */
    std::vector<double> phasePerf;
    /** Per-phase share of total time. */
    std::vector<double> timeShare;
    /** Index of the phase consuming the most time. */
    int dominantPhase = 0;
};

/**
 * A usecase broken into serial phases, each internally concurrent or
 * exclusive.
 */
class PhasedUsecase
{
  public:
    /**
     * @param name   Display name, for diagnostics.
     * @param phases Phase list; workShares must be non-negative and
     *               sum to 1, and every phase's usecase must be valid.
     */
    PhasedUsecase(const std::string &name, std::vector<Phase> phases);

    /** @return The phases. */
    const std::vector<Phase> &phases() const { return phases_; }

    /**
     * Evaluate: total time is sum over phases of
     * workShare / Pattainable(phase); overall bound is its inverse.
     */
    PhasedResult evaluate(const SocSpec &soc) const;

  private:
    std::vector<Phase> phases_;
};

} // namespace gables

#endif // GABLES_CORE_PHASED_H
