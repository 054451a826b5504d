/**
 * @file
 * Monte-Carlo robustness analysis. The paper's early-design reality:
 * usecase parameters (work fractions, intensities) for a chip that
 * ships in 2-3 years are estimates, not measurements. This module
 * perturbs a nominal usecase with log-normal-ish multiplicative
 * noise, evaluates the distribution of attainable performance, and
 * reports quantiles plus the probability of meeting a target — so a
 * design can be chosen for its worst plausible case, not its
 * nominal one.
 */

#ifndef GABLES_ANALYSIS_ROBUSTNESS_H
#define GABLES_ANALYSIS_ROBUSTNESS_H

#include <cstdint>
#include <map>
#include <vector>

#include "core/gables.h"

namespace gables {

/** Distribution summary of a robustness run. */
struct RobustnessReport {
    /** Number of samples drawn. */
    int samples = 0;
    /** Performance at the nominal (unperturbed) usecase (ops/s). */
    double nominal = 0.0;
    /** Sample mean (ops/s). */
    double mean = 0.0;
    /** 5th / 50th / 95th percentile performance (ops/s). */
    double p5 = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    /** Fraction of samples meeting the target (if one was given). */
    double meetsTargetProbability = 1.0;
    /**
     * How often each resource was the bottleneck: key is the IP
     * index, or -1 for the memory interface.
     */
    std::map<int, double> bottleneckShare;
};

/**
 * Monte-Carlo evaluator.
 */
class Robustness
{
  public:
    /**
     * Multiplicative jitter on intensities: each finite Ii is scaled
     * by a log-uniform factor in [1/x, x].
     */
    static constexpr double kIntensityJitter = 2.0;
    /**
     * Jitter on work fractions: each active fi is scaled by a
     * log-uniform factor in [1/x, x], then the vector renormalizes.
     */
    static constexpr double kFractionJitter = 1.5;

    /** Sampling configuration. */
    struct Options {
        /** Samples to draw. */
        int samples = 1000;
        /** RNG seed (deterministic across runs). */
        uint64_t seed = 1;
        /** Performance target (ops/s); 0 = no target. */
        double target = 0.0;
    };

    /**
     * Run the analysis.
     *
     * @param soc     Hardware description.
     * @param usecase Nominal usecase.
     * @param options Sampling configuration.
     */
    static RobustnessReport analyze(const SocSpec &soc,
                                    const Usecase &usecase,
                                    const Options &options);

    /** analyze() with default options. */
    static RobustnessReport
    analyze(const SocSpec &soc, const Usecase &usecase)
    {
        return analyze(soc, usecase, Options{});
    }
};

} // namespace gables

#endif // GABLES_ANALYSIS_ROBUSTNESS_H
