/**
 * @file
 * Catalog of concrete SoC descriptions used throughout the
 * evaluation:
 *
 *  - Gables SocSpec models of the Qualcomm Snapdragon 835 and 821,
 *    with CPU/GPU/DSP parameters set to the paper's *measured*
 *    (pessimistic/ceiling) rooflines from Section IV, and a "full"
 *    835 variant carrying the ten IPs of Table I with documented
 *    estimates for the non-measured blocks.
 *
 *  - Simulated SimSoc instances calibrated so that running the ERT
 *    micro-benchmark on them reproduces those measured rooflines
 *    (our substitution for the silicon testbed).
 *
 * Measured anchor points (paper Figures 7 and 9):
 *   CPU  7.5 Gops/s peak, 15.1 GB/s DRAM stream
 *   GPU  349.6 Gops/s peak, 24.4 GB/s DRAM stream
 *   DSP  3.0 Gops/s peak (scalar),  5.4 GB/s DRAM stream
 *   chip ~30 GB/s theoretical peak DRAM bandwidth
 */

#ifndef GABLES_SOC_CATALOG_H
#define GABLES_SOC_CATALOG_H

#include <memory>
#include <string>
#include <vector>

#include "core/soc_spec.h"
#include "sim/soc.h"

namespace gables {

/** Index constants for the ten-IP "full" SoC, in Table I column
 * order. */
enum FullSocIp : size_t {
    kIpAp = 0,
    kIpDisplay = 1,
    kIpG2ds = 2,
    kIpGpu = 3,
    kIpIsp = 4,
    kIpJpeg = 5,
    kIpIpu = 6,
    kIpVdec = 7,
    kIpVenc = 8,
    kIpDsp = 9,
    kNumFullSocIps = 10,
};

/**
 * A catalog SoC under the name the CLI's --soc and --chip take.
 */
struct NamedSoc {
    /** The name, e.g. "sd835". */
    const char *name;
    /** The Gables spec. */
    SocSpec (*spec)();
    /** The calibrated simulator, or nullptr where
     * SocCatalog::simFromSpec() stands in for one. */
    std::unique_ptr<sim::SimSoc> (*sim)();
};

/**
 * Factory functions for catalog SoCs.
 */
class SocCatalog
{
  public:
    /** Every named SoC, in listing order: sd835, sd835-full, sd821,
     * paper, paper-balanced. */
    static const std::vector<NamedSoc> &named();

    /**
     * @return The SoC called @p name; the empty name means sd835.
     * @throws FatalError "unknown SoC '<name>'" with a did-you-mean
     *         and the list of names.
     */
    static const NamedSoc &byName(const std::string &name);

    /**
     * Snapdragon-835-like three-IP Gables spec (CPU, GPU, DSP) with
     * the paper's measured rooflines.
     */
    static SocSpec snapdragon835();

    /**
     * Snapdragon-821-like three-IP Gables spec; the paper reports
     * its findings hold on both chips, so this carries slightly
     * lower (previous-generation) parameters.
     */
    static SocSpec snapdragon821();

    /**
     * Ten-IP Snapdragon-835-like Gables spec in Table I column
     * order. CPU/GPU/DSP use measured numbers; fixed-function blocks
     * (ISP, IPU, VDEC, ...) use spec-sheet-style estimates
     * documented in DESIGN.md.
     */
    static SocSpec snapdragon835Full();

    /**
     * The didactic two-IP SoC of paper Figure 6a-c: Ppeak = 40
     * Gops/s, Bpeak = 10 GB/s, A1 = 5, B0 = 6 GB/s, B1 = 15 GB/s.
     */
    static SocSpec paperTwoIp();

    /** The Figure 6d balanced variant: Bpeak = 20 GB/s. */
    static SocSpec paperTwoIpBalanced();

    /**
     * Simulated Snapdragon-835-like SoC: CPU + GPU on a high-
     * bandwidth fabric, DSP on a slower system fabric, shared DRAM.
     * Engines carry local memories so working-set sweeps show cache
     * tiers. Calibrated to reproduce the measured rooflines above.
     */
    static std::unique_ptr<sim::SimSoc> snapdragon835Sim();

    /** Simulated Snapdragon-821-like SoC. */
    static std::unique_ptr<sim::SimSoc> snapdragon821Sim();

    /**
     * A small generic simulated SoC (one engine, one fabric) with
     * caller-chosen rates — the workhorse of simulator unit tests.
     *
     * @param ops_per_sec Engine compute rate.
     * @param link_bw     Engine link bandwidth.
     * @param dram_bw     DRAM bandwidth.
     */
    static std::unique_ptr<sim::SimSoc> simpleSim(double ops_per_sec,
                                                  double link_bw,
                                                  double dram_bw);

    /**
     * Build a simulated SoC that realizes an arbitrary Gables
     * SocSpec under the base model's own assumptions: one engine per
     * IP (compute Ai*Ppeak, link Bi), a single wide fabric, shared
     * DRAM at Bpeak, and no local memories (so every byte is
     * off-chip, as the base model counts it). Engine names match the
     * spec's IP names. This is the bridge for model-vs-simulator
     * cross-validation on multi-IP concurrent usecases.
     */
    static std::unique_ptr<sim::SimSoc>
    simFromSpec(const SocSpec &spec);

    /**
     * The measured CPU roofline with vectorization modeled as the
     * paper describes it: the NEON/SIMD roof exceeds 40 Gops/s while
     * the scalar micro-benchmark the paper standardizes on tops out
     * at 7.5 — expressed here as a 40 Gops/s roof with a "non-NEON"
     * compute ceiling at 7.5 (Section IV-B).
     */
    static Roofline sd835CpuRooflineWithSimd();

    /** @name Calibration anchor constants (paper Section IV). */
    /** @{ */
    static constexpr double kCpuPeakOps = 7.5e9;
    static constexpr double kCpuStreamBw = 15.1e9;
    static constexpr double kGpuPeakOps = 349.6e9;
    static constexpr double kGpuStreamBw = 24.4e9;
    static constexpr double kDspPeakOps = 3.0e9;
    static constexpr double kDspStreamBw = 5.4e9;
    static constexpr double kChipDramBw = 29.8e9;
    /** @} */
};

} // namespace gables

#endif // GABLES_SOC_CATALOG_H
