/**
 * @file
 * Gables extension V-C: exclusive/serialized work, where only one IP
 * is active at a time (the computational assumption of Amdahl's Law
 * and MultiAmdahl). Each IP still overlaps its own data transfer with
 * its execution, and off-chip transfer joins the per-IP max:
 * T'IP[i] = max(Di/Bpeak, Di/Bi, Ci) (paper Eq. 18); the usecase time
 * is the SUM of the T'IP[i] and Tmemory is omitted (paper Eq. 19).
 */

#ifndef GABLES_CORE_SERIALIZED_H
#define GABLES_CORE_SERIALIZED_H

#include <vector>

#include "core/gables.h"

namespace gables {

/** Result of a serialized-work evaluation. */
struct SerializedResult {
    /** Upper bound on performance (ops/s), paper Eq. 19. */
    double attainable = 0.0;
    /** Per-IP serialized times T'IP[i] (s per unit op). */
    std::vector<double> ipTimes;
    /** Index of the IP contributing the largest time share. */
    int dominantIp = 0;
    /** Fraction of total time spent at the dominant IP. */
    double dominantShare = 0.0;
};

/**
 * Evaluator for the exclusive/serialized-work extension.
 */
class SerializedModel
{
  public:
    /**
     * Evaluate a usecase with work serialized among IPs.
     *
     * @param soc     Hardware description.
     * @param usecase Work fractions now represent the serial order's
     *                shares (non-negative, summing to 1), as in
     *                Amdahl's Law.
     */
    static SerializedResult evaluate(const SocSpec &soc,
                                     const Usecase &usecase);
};

} // namespace gables

#endif // GABLES_CORE_SERIALIZED_H
