/**
 * @file
 * Balanced-design solvers: the Figure 6d question. A design is
 * balanced for a usecase when no resource is over-provisioned — the
 * binding IP rooflines and the memory roofline all bound performance
 * at (nearly) the same value, as in the paper's final two-IP SoC
 * where all three rooflines meet at 160 Gops/s.
 */

#ifndef GABLES_ANALYSIS_BALANCE_H
#define GABLES_ANALYSIS_BALANCE_H

#include <vector>

#include "core/gables.h"

namespace gables {

/** Diagnosis of how balanced a design is for a usecase. */
struct BalanceReport {
    /** Attainable performance (ops/s). */
    double attainable = 0.0;
    /**
     * Per-IP slack: perfBound / attainable - 1 (0 means the IP's
     * scaled roofline exactly binds; large means over-provisioned
     * for this usecase). +inf for idle IPs.
     */
    std::vector<double> ipSlack;
    /** Memory-interface slack, same definition. */
    double memorySlack = 0.0;
    /**
     * Max finite slack across resources; a perfectly balanced design
     * has ~0.
     */
    double maxSlack = 0.0;
};

/**
 * Balanced-design analysis and solvers.
 */
class Balance
{
  public:
    /** Compute the slack report for a design/usecase pair. */
    static BalanceReport report(const SocSpec &soc,
                                const Usecase &usecase);

    /**
     * The smallest off-chip bandwidth that does not reduce attainable
     * performance: Bpeak* = (sum Di) * Pattainable-without-memory-
     * bound. Any Bpeak above this is wasted expense for this usecase
     * (the Figure 6d move from 30 down to 20 GB/s).
     *
     * @return The sufficient Bpeak in bytes/s; 0 when the usecase
     *         moves no data.
     */
    static double sufficientBpeak(const SocSpec &soc,
                                  const Usecase &usecase);

    /**
     * The smallest link bandwidth Bi for IP @p ip that does not
     * reduce attainable performance (holding all else fixed).
     */
    static double sufficientIpBandwidth(const SocSpec &soc,
                                        const Usecase &usecase,
                                        size_t ip);
};

} // namespace gables

#endif // GABLES_ANALYSIS_BALANCE_H
