/**
 * @file
 * Gables extension V-A: a memory-side SRAM (scratchpad or cache, on
 * chip or in package) that filters off-chip traffic. IP[i]'s
 * references miss to DRAM with probability mi and hit the new memory
 * with probability (1 - mi), shrinking off-chip demand to
 * D'i = mi * Di (paper Eq. 15). IP link traffic Di over Bi is
 * unchanged: the SRAM sits on the memory side of the interconnect.
 * Pass one to GablesModel::evaluate() to apply it.
 */

#ifndef GABLES_CORE_MEMSIDE_H
#define GABLES_CORE_MEMSIDE_H

#include <vector>

#include "core/gables.h"

namespace gables {

/**
 * Configuration of the memory-side memory extension: one miss ratio
 * per IP.
 */
class MemSideMemory
{
  public:
    /**
     * @param miss_ratios mi per IP, each in [0, 1]; 1 means the IP
     *                    gets no reuse from the new memory (base
     *                    model behaviour), 0 means all of its traffic
     *                    is absorbed on chip.
     */
    explicit MemSideMemory(std::vector<double> miss_ratios);

    /**
     * Uniform miss ratio for every one of @p n IPs.
     */
    static MemSideMemory uniform(size_t n, double miss_ratio);

    /** @return The per-IP miss ratios. */
    const std::vector<double> &missRatios() const { return missRatios_; }

  private:
    std::vector<double> missRatios_;
};

/**
 * Estimate a miss ratio from footprint and capacity with a simple
 * fractional-fit model: the fraction of the working set that does not
 * fit must come from DRAM on each reuse pass.
 *
 * @param working_set_bytes The IP's working set.
 * @param capacity_bytes    Memory-side SRAM capacity apportioned to
 *                          the IP.
 * @return min(1, max(0, 1 - capacity/working_set)); 0 when the set
 *         fits entirely.
 */
double fractionalFitMissRatio(double working_set_bytes,
                              double capacity_bytes);

} // namespace gables

#endif // GABLES_CORE_MEMSIDE_H
