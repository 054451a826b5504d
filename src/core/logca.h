/**
 * @file
 * LogCA baseline (Altaf & Wood, ISCA 2017), the accelerator model
 * the paper cites as a candidate sub-model for IP interaction
 * overheads (Section VI). LogCA describes an offload of granularity
 * g (work items per invocation) with five parameters:
 *
 *   L — per-invocation latency to reach the accelerator,
 *   o — host-side overhead per invocation (setup/dispatch),
 *   g — granularity (work per invocation),
 *   C — host compute time per work item (so T_host = C * g^beta),
 *   A — the accelerator's peak speedup over the host.
 *
 *   T_host(g)  = C * g^beta
 *   T_accel(g) = o + L * g^eta + C * g^beta / A
 *   speedup(g) = T_host / T_accel
 *
 * with beta the algorithmic complexity exponent (1 for linear work)
 * and eta in {0, 1}: eta = 0 models a latency that does not scale
 * with granularity (fixed-size descriptor), eta = 1 models
 * granularity-proportional transfer (the common DMA case).
 *
 * LogCA answers "how big must an offload be to pay off?" — the same
 * question Gables answers via operational intensity; the ablation
 * bench sets the two side by side.
 */

#ifndef GABLES_CORE_LOGCA_H
#define GABLES_CORE_LOGCA_H

namespace gables {

/**
 * A LogCA accelerator description.
 */
class LogCAModel
{
  public:
    /** Parameter bundle. */
    struct Params {
        /** Per-invocation latency (s), >= 0. */
        double latency = 0.0;
        /** Host overhead per invocation (s), >= 0. */
        double overhead = 0.0;
        /** Host compute time per work item (s), > 0. */
        double computePerItem = 0.0;
        /** Peak acceleration A (unitless), > 0. */
        double acceleration = 1.0;
        /** Complexity exponent beta, > 0 (1 = linear). */
        double beta = 1.0;
        /** Latency exponent eta: 0 (fixed) or 1 (proportional). */
        double eta = 1.0;
    };

    /** @param params Model parameters; validated. */
    explicit LogCAModel(const Params &params);

    /** @return Host execution time for granularity @p g (s). */
    double hostTime(double g) const;

    /** @return Accelerated execution time for granularity @p g. */
    double accelTime(double g) const;

    /** @return speedup(g) = hostTime / accelTime. */
    double speedup(double g) const;

    /**
     * The break-even granularity g1: the smallest g with
     * speedup(g) >= 1 (found by bisection on the monotone speedup
     * curve); +infinity if offload never pays, 0 if it always does.
     */
    double breakEvenGranularity() const;

    /**
     * The asymptotic speedup as g -> infinity: A when eta = 0 (the
     * compute term dominates), less when eta = 1 (transfer scales
     * with work and caps the win).
     */
    double asymptoticSpeedup() const;

  private:
    Params params_;
};

} // namespace gables

#endif // GABLES_CORE_LOGCA_H
