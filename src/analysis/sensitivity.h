/**
 * @file
 * Sensitivity analysis: elasticities of attainable performance with
 * respect to every hardware and software parameter. Answers the
 * early-design question "which knob is worth turning?" — e.g. in
 * Figure 6b the Bpeak elasticity is ~1 (bandwidth-starved) while the
 * Ppeak elasticity is 0.
 */

#ifndef GABLES_ANALYSIS_SENSITIVITY_H
#define GABLES_ANALYSIS_SENSITIVITY_H

#include <string>
#include <vector>

#include "core/gables.h"

namespace gables {

/** Elasticity of performance w.r.t. one parameter. */
struct SensitivityEntry {
    /** Parameter label, e.g. "Bpeak", "A[1]", "I[1]". */
    std::string parameter;
    /**
     * Elasticity d ln(Pattainable) / d ln(parameter), estimated by a
     * central finite difference in log space. For a pure bottleneck
     * model this is ~1 for the binding resource and ~0 for slack
     * resources; fractional values mean the bottleneck shifts within
     * the probe step.
     */
    double elasticity = 0.0;
};

/**
 * Finite-difference sensitivity of the base Gables model.
 */
class Sensitivity
{
  public:
    /**
     * Compute elasticities for Ppeak, Bpeak, each Ai (i >= 1), each
     * Bi, and each Ii with fi > 0.
     *
     * @param soc      Hardware description.
     * @param usecase  Software description.
     * @param rel_step Relative probe step (default 1%).
     * @return Entries ordered: Ppeak, Bpeak, A[1..], B[0..], I[..].
     */
    static std::vector<SensitivityEntry> analyze(const SocSpec &soc,
                                                 const Usecase &usecase,
                                                 double rel_step = 0.01);
};

} // namespace gables

#endif // GABLES_ANALYSIS_SENSITIVITY_H
