/**
 * @file
 * Gables extension V-B: model the on-chip interconnect as Q buses,
 * each a slanted-only roofline with bandwidth Bbus[j]. A Use(i,j)
 * matrix records which buses lie on IP[i]'s (single) path to memory.
 * Each bus adds a potential bottleneck term
 * TBus[j] = sum_i(Di * Use(i,j)) / Bbus[j] (paper Eqs. 16-17).
 * Pass one to GablesModel::evaluate() to add those terms.
 */

#ifndef GABLES_CORE_INTERCONNECT_H
#define GABLES_CORE_INTERCONNECT_H

#include <string>
#include <vector>

#include "core/gables.h"

namespace gables {

/** One interconnection network (colloquially, a bus). */
struct BusSpec {
    /** Display name, e.g. "multimedia fabric". */
    std::string name;
    /** Bandwidth Bbus[j] (bytes/s). */
    double bandwidth = 0.0;
};

/**
 * Bus topology for the interconnect extension.
 */
class InterconnectModel
{
  public:
    /**
     * @param buses Bus descriptors.
     * @param use   use[i][j] is true when IP[i]'s path to memory
     *              traverses Bus[j]; dimensions N x Q.
     */
    InterconnectModel(std::vector<BusSpec> buses,
                      std::vector<std::vector<bool>> use);

    /**
     * Build the common hierarchical topology of Figure 3: a set of
     * leaf fabrics, each serving a contiguous group of IPs, all
     * funneling into one system fabric that connects to the memory
     * controller.
     *
     * @param leaf_names  One name per leaf fabric.
     * @param leaf_bw     One bandwidth per leaf fabric (bytes/s).
     * @param ip_to_leaf  For each IP, the index of its leaf fabric.
     * @param system_bw   Bandwidth of the shared system fabric; pass
     *                    0 to omit the system fabric level.
     */
    static InterconnectModel hierarchy(
        const std::vector<std::string> &leaf_names,
        const std::vector<double> &leaf_bw,
        const std::vector<size_t> &ip_to_leaf, double system_bw);

    /** @return Number of buses Q. */
    size_t numBuses() const { return buses_.size(); }

    /** @return Number of Use-matrix rows, one per IP. */
    size_t numIps() const { return use_.size(); }

    /** @return Bus descriptors. */
    const std::vector<BusSpec> &buses() const { return buses_; }

    /** @return True if IP @p i uses bus @p j. */
    bool uses(size_t i, size_t j) const;

  private:
    std::vector<BusSpec> buses_;
    std::vector<std::vector<bool>> use_;
};

} // namespace gables

#endif // GABLES_CORE_INTERCONNECT_H
