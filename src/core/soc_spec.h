/**
 * @file
 * Hardware-side parameters of the Gables model (paper Table II, HW
 * inputs): the SoC's baseline peak performance Ppeak, shared off-chip
 * bandwidth Bpeak, and per-IP acceleration Ai and link bandwidth Bi.
 */

#ifndef GABLES_CORE_SOC_SPEC_H
#define GABLES_CORE_SOC_SPEC_H

#include <cstddef>
#include <string>
#include <vector>

#include "core/param.h"
#include "core/roofline.h"

namespace gables {

/**
 * One IP block of an N-IP SoC: its acceleration relative to the
 * baseline IP[0] and its bandwidth to the on-chip interconnect.
 */
struct IpSpec {
    /** Display name (e.g. "CPU", "GPU", "ISP"). */
    std::string name;
    /**
     * Peak acceleration Ai (unitless): the IP's peak performance is
     * Ai * Ppeak. The paper requires A0 == 1.
     */
    double acceleration = 1.0;
    /** Peak bandwidth Bi to/from the IP (bytes/s). */
    double bandwidth = 0.0;
};

/**
 * Hardware description of an N-IP SoC for the Gables model.
 *
 * Valid by construction: the constructor and with() check the Table
 * II rules of core/param.h (Ppeak > 0, Bpeak > 0, IP[0].acceleration
 * == 1, all accelerations > 0 and bandwidths > 0, all finite, and
 * every IP's peak Ai * Ppeak finite) and that there is at least one
 * IP, and there is no other way to build or change one. So a model
 * entry point never re-checks a SocSpec.
 */
class SocSpec
{
  public:
    /**
     * @param name  Display name of the SoC.
     * @param ppeak Peak performance of the baseline IP[0] (ops/s).
     * @param bpeak Peak off-chip memory bandwidth (bytes/s).
     * @param ips   IP blocks, IP[0] first.
     * @throws FatalError "SoC '<name>': ..." naming the first broken
     *         rule.
     */
    SocSpec(std::string name, double ppeak, double bpeak,
            std::vector<IpSpec> ips);

    /** @return Display name. */
    const std::string &name() const { return name_; }

    /** @return Baseline peak performance Ppeak (ops/s). */
    double ppeak() const { return ppeak_; }

    /** @return Off-chip memory bandwidth Bpeak (bytes/s). */
    double bpeak() const { return bpeak_; }

    /** @return Number of IP blocks N. */
    size_t numIps() const { return ips_.size(); }

    /** @return The IP descriptors, IP[0] first. */
    const std::vector<IpSpec> &ips() const { return ips_; }

    /** @return IP descriptor @p i (bounds-checked). */
    const IpSpec &ip(size_t i) const;

    /** @return IP @p i's display name: its name, else IP[i]. */
    std::string ipLabel(size_t i) const;

    /** @return Peak performance of IP @p i: Ai * Ppeak (ops/s). */
    double ipPeakPerf(size_t i) const;

    /**
     * @return The isolated roofline of IP @p i: flat roof Ai * Ppeak,
     * slanted roof min(Bi, Bpeak) — an IP cannot stream faster than
     * either its own link or the chip's memory interface when running
     * alone.
     */
    Roofline ipRoofline(size_t i) const;

    /**
     * @return Index of the IP named @p name.
     * @throws FatalError if no IP has that name.
     */
    size_t ipIndex(const std::string &name) const;

    /**
     * @return A copy with hardware input @p p (Ppeak, Bpeak, A[i] or
     * B[i]) replaced by @p value.
     * @throws FatalError for a usecase input, an IP index out of
     *         range, or a value that breaks a rule.
     */
    SocSpec with(Param p, double value) const;

  private:
    /**
     * Check every rule, in declaration order.
     * @throws FatalError describing the first broken rule.
     */
    void validate() const;

    std::string name_;
    double ppeak_;
    double bpeak_;
    std::vector<IpSpec> ips_;
};

} // namespace gables

#endif // GABLES_CORE_SOC_SPEC_H
