/**
 * @file
 * The base Gables model (paper Section III): bottleneck analysis of
 * an N-IP SoC whose IPs operate concurrently and share off-chip
 * memory bandwidth.
 *
 * Work is normalized so the whole usecase is 1 operation; all times
 * below are therefore seconds-per-op and the attainable performance
 * Pattainable = 1 / max(times) is in ops/s (paper Eqs. 9-11). The
 * dual performance-form equations (Eqs. 12-14) are also provided and
 * are verified against the time form by property tests.
 *
 * The Section V-A and V-B extensions only add terms to the same max:
 * a memory-side SRAM filters each IP's DRAM bytes by its miss ratio
 * (Eq. 15) and each bus adds TBus[j] (Eqs. 16-17). They are optional
 * arguments of the one reduction, GablesModel::evaluate().
 */

#ifndef GABLES_CORE_GABLES_H
#define GABLES_CORE_GABLES_H

#include <string>
#include <vector>

#include "core/soc_spec.h"
#include "core/usecase.h"

namespace gables {

class InterconnectModel;
class MemSideMemory;

/** Which resource bounds the usecase. */
enum class BottleneckKind {
    /** An IP's computation rate (Ci dominates at the critical IP). */
    IpCompute,
    /** An IP's link bandwidth (Di/Bi dominates at the critical IP). */
    IpBandwidth,
    /** The shared off-chip memory interface (Tmemory dominates). */
    Memory,
    /** An interconnect bus (TBus[j] dominates, paper Eq. 17). */
    Bus,
};

/** @return A short display string for a bottleneck kind. */
std::string toString(BottleneckKind kind);

/** Per-IP timing detail of a Gables evaluation. */
struct IpTiming {
    /** Compute time Ci = fi / (Ai * Ppeak), seconds per unit op. */
    double computeTime = 0.0;
    /** Data moved Di = fi / Ii, bytes per unit op. */
    double dataBytes = 0.0;
    /** Link transfer time Di / Bi, seconds per unit op. */
    double transferTime = 0.0;
    /** TIP[i] = max(Di/Bi, Ci) (paper Eq. 9). */
    double time = 0.0;
    /**
     * The IP's scaled roofline bound 1/TIP[i] =
     * min(Bi*Ii, Ai*Ppeak)/fi (paper Eq. 12); +inf when fi == 0.
     */
    double perfBound = 0.0;
};

/**
 * Complete result of evaluating a usecase on a SoC.
 *
 * The memory fields describe DRAM traffic after any memory-side
 * SRAM's miss ratios are applied (sum(mi * Di), Eq. 15); without an
 * SRAM every mi is 1.
 */
struct GablesResult {
    /** Upper bound on SoC performance (ops/s), paper Eq. 11/14. */
    double attainable = 0.0;
    /** Time on the chip's memory interface (s per unit op), Eq. 10. */
    double memoryTime = 0.0;
    /** Memory roofline bound 1/Tmemory = Bpeak * Iavg (Eq. 13). */
    double memoryPerfBound = 0.0;
    /** Weighted harmonic-mean intensity Iavg (ops/byte). */
    double averageIntensity = 0.0;
    /** Total off-chip data demand sum(mi * Di) (bytes per unit op). */
    double totalDataBytes = 0.0;
    /** Per-IP timing details, index-aligned with the SoC's IPs. */
    std::vector<IpTiming> ips;
    /** Per-bus times TBus[j] (s per unit op, Eq. 16); empty when no
     * interconnect is modeled. */
    std::vector<double> busTimes;
    /**
     * Index of the bottleneck IP, or -1 when the memory interface or
     * a bus is the bottleneck. Ties break toward the memory
     * interface, then the lowest IP index, then the lowest bus index
     * (deterministic attribution).
     */
    int bottleneckIp = -1;
    /** Index of the bottleneck bus, or -1 unless a bus binds. */
    int bottleneckBus = -1;
    /** The kind of resource that limits performance. */
    BottleneckKind bottleneck = BottleneckKind::Memory;

    /**
     * @param interconnect The model the result was evaluated with,
     *        for bus names; without it a bus reads "bus <j>".
     * @return A short, human-readable bottleneck description.
     */
    std::string
    bottleneckLabel(const SocSpec &soc,
                    const InterconnectModel *interconnect = nullptr) const;
};

/**
 * Evaluator for the base Gables model and its concurrent extensions.
 *
 * Stateless; all methods are static. The memory-side SRAM and the
 * interconnect are inputs to evaluate(); serialized work sums times
 * instead of taking their max and lives in its own header.
 */
class GablesModel
{
  public:
    /**
     * Evaluate a usecase on a SoC with the time-form equations
     * (Eqs. 9-11): Pattainable = 1 / max(TIP[i], TBus[j],
     * sum(mi * Di) / Bpeak).
     *
     * The SRAM sits on the memory side of the interconnect, so buses
     * carry each IP's full Di and only the DRAM term is filtered.
     * With neither extension (or all mi == 1 and no binding bus)
     * every base field is bit-identical to the base model.
     *
     * @param soc          Hardware description (valid by
     *                     construction).
     * @param usecase      Software description; must have exactly as
     *                     many entries as the SoC has IPs
     *                     (checkPair()).
     * @param memside      Optional memory-side SRAM (Eq. 15); one
     *                     miss ratio per IP.
     * @param interconnect Optional bus topology (Eqs. 16-17); one Use
     *                     row per IP.
     * @return Full result with per-IP (and per-bus) details and
     *         bottleneck attribution.
     * @throws FatalError on mismatched sizes; the pair itself was
     *         checked when it was built.
     */
    static GablesResult
    evaluate(const SocSpec &soc, const Usecase &usecase,
             const MemSideMemory *memside = nullptr,
             const InterconnectModel *interconnect = nullptr);

    /**
     * Attainable performance via the dual performance-form equations
     * (Eqs. 12-14): the minimum over scaled IP rooflines and the
     * memory roofline, with fi == 0 terms omitted.
     *
     * Equal to evaluate().attainable up to floating-point rounding;
     * kept separate because it is the form the multi-roofline plots
     * visualize.
     */
    static double attainablePerfForm(const SocSpec &soc,
                                     const Usecase &usecase);
};

} // namespace gables

#endif // GABLES_CORE_GABLES_H
