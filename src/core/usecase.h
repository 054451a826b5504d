/**
 * @file
 * Software-side parameters of the Gables model (paper Table II, SW
 * inputs): for each IP, the fraction of usecase work fi assigned to
 * it and the operational intensity Ii of that work.
 */

#ifndef GABLES_CORE_USECASE_H
#define GABLES_CORE_USECASE_H

#include <cstddef>
#include <string>
#include <vector>

namespace gables {

/**
 * Work assigned to one IP: a fraction of the usecase's total
 * operations and the operational intensity at which that fraction
 * executes.
 */
struct IpWork {
    /** Fraction fi of total work (unitless, >= 0; all fi sum to 1). */
    double fraction = 0.0;
    /**
     * Operational intensity Ii (ops/byte) of the work at this IP.
     * May be +infinity to model work with no off-IP data traffic.
     * Ignored (may be anything positive) when fraction == 0.
     */
    double intensity = 1.0;
};

/**
 * A Gables usecase: concurrent non-negative work fractions summing
 * to 1, with a per-IP operational intensity.
 *
 * Valid by construction: the constructor checks each entry against
 * the fi/Ii rule of core/param.h, and that there is at least one
 * entry and the fractions sum to 1. There is no other way to build
 * or change one, so a model entry point never re-checks a Usecase.
 */
class Usecase
{
  public:
    /**
     * @param name Display name (e.g. "HDR+", "Videocapture HFR").
     * @param work Per-IP work assignments, index-aligned with the
     *             SocSpec's IPs.
     * @throws FatalError "usecase '<name>': ..." naming the first
     *         broken rule.
     */
    Usecase(std::string name, std::vector<IpWork> work);

    /**
     * Convenience constructor for the two-IP primer of paper Section
     * III-B: (1-f) work at IP[0] with intensity i0, f at IP[1] with
     * intensity i1.
     */
    static Usecase twoIp(std::string name, double f, double i0,
                         double i1);

    /** @return Display name. */
    const std::string &name() const { return name_; }

    /** @return Number of per-IP work entries. */
    size_t numIps() const { return work_.size(); }

    /** @return All work entries. */
    const std::vector<IpWork> &work() const { return work_; }

    /** @return Work entry @p i (bounds-checked). */
    const IpWork &at(size_t i) const;

    /** @return Fraction fi for IP @p i. */
    double fraction(size_t i) const { return at(i).fraction; }

    /** @return Intensity Ii for IP @p i. */
    double intensity(size_t i) const { return at(i).intensity; }

    /**
     * @return The usecase's average intensity Iavg: the harmonic mean
     * of the Ii weighted by fi (paper Eq. 7/13). IPs with fi == 0 are
     * skipped; an IP with infinite intensity contributes no traffic.
     */
    double averageIntensity() const;

    /** @return Total bytes per unit op: sum(fi / Ii). Zero if all
     * active intensities are infinite. */
    double bytesPerOp() const;

    /** @return A copy with entry @p i replaced, checked as the
     * constructor checks. */
    Usecase withWork(size_t i, IpWork work) const;

  private:
    /**
     * Check the rules: at least one entry, each entry's fi and Ii,
     * and fractions summing to 1 within tolerance.
     * @throws FatalError on the first broken rule.
     */
    void validate() const;

    std::string name_;
    std::vector<IpWork> work_;
};

} // namespace gables

#endif // GABLES_CORE_USECASE_H
