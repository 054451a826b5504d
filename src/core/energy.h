/**
 * @file
 * An energy/power extension of Gables. The paper's motivation is
 * explicitly power-constrained ("a tight 3 Watt thermal design
 * point", all-day battery life, accelerators an order of magnitude
 * more efficient than the AP) but the base model bounds performance
 * only; this extension closes that gap in the same bottleneck-
 * analysis spirit:
 *
 *   power(P) = P * (sum_i fi * e_i  +  bytesPerOp * e_mem) + P_static
 *
 * where e_i is IP[i]'s energy per operation, e_mem the energy per
 * off-chip byte, and P the achieved ops/s. A TDP cap then adds one
 * more roofline: P_tdp = (TDP - P_static) / energyPerOp, and the
 * power-constrained bound is min(Pattainable, P_tdp).
 */

#ifndef GABLES_CORE_ENERGY_H
#define GABLES_CORE_ENERGY_H

#include <vector>

#include "core/gables.h"

namespace gables {

/** Result of a power-aware evaluation. */
struct EnergyResult {
    /** The base performance bound (ops/s). */
    double attainable = 0.0;
    /** The TDP-imposed bound (ops/s); +inf if no cap binds. */
    double tdpBound = 0.0;
    /** min(attainable, tdpBound) (ops/s). */
    double constrained = 0.0;
    /** Energy per operation of the usecase (J/op). */
    double energyPerOp = 0.0;
    /** Power drawn when running at `constrained` (W). */
    double power = 0.0;
    /** True when the TDP, not the hardware rooflines, binds. */
    bool thermallyLimited = false;
};

/**
 * Per-IP and memory energy coefficients.
 */
class EnergyModel
{
  public:
    /**
     * @param energy_per_op   e_i per IP (J/op), index-aligned with
     *                        the SoC; accelerators typically have
     *                        much smaller e_i than the AP.
     * @param energy_per_byte Off-chip DRAM energy (J/byte).
     * @param static_power    Always-on power (W).
     */
    EnergyModel(std::vector<double> energy_per_op,
                double energy_per_byte, double static_power);

    /**
     * Energy per operation of a usecase: sum(fi * e_i) plus DRAM
     * energy for its per-op traffic.
     */
    double usecaseEnergyPerOp(const Usecase &usecase) const;

    /**
     * Evaluate a usecase under a thermal design power cap.
     *
     * @param soc     Hardware description.
     * @param usecase Software description.
     * @param tdp_watts Power cap (W); must exceed static power.
     */
    EnergyResult evaluate(const SocSpec &soc, const Usecase &usecase,
                          double tdp_watts) const;

  private:
    std::vector<double> energyPerOp_;
    double energyPerByte_;
    double staticPower_;
};

} // namespace gables

#endif // GABLES_CORE_ENERGY_H
