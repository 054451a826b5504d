/**
 * @file
 * An Empirical-Roofline-Toolkit-style harness (paper Section IV-A,
 * after Lo et al.): run the Algorithm-1 kernel on a simulated IP at
 * a sweep of operational intensities (and optionally working-set
 * sizes), and collect achieved compute and data rates from which a
 * roofline can be fitted.
 */

#ifndef GABLES_ERT_ERT_H
#define GABLES_ERT_ERT_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "parallel/parallel_for.h"
#include "sim/soc.h"

namespace gables {

/** One measured operating point of the micro-benchmark. */
struct ErtSample {
    /** The configured FLOPS_PER_BYTE of the kernel. */
    double opsPerByte = 0.0;
    /** Working-set size used (bytes). */
    double workingSetBytes = 0.0;
    /** Achieved computation rate (ops/s). */
    double opsRate = 0.0;
    /** Achieved total data rate, hits plus misses (bytes/s). */
    double byteRate = 0.0;
    /** Achieved off-IP (DRAM-side) data rate (bytes/s). */
    double missByteRate = 0.0;
};

/** Sweep configuration. */
struct ErtConfig {
    /** Intensities to probe (ops/byte). */
    std::vector<double> intensities;
    /** Working-set size (bytes); large sets defeat local memories. */
    double workingSetBytes = 64.0 * 1024 * 1024;
    /** Total bytes streamed per point (more = less startup skew). */
    double totalBytes = 256.0 * 1024 * 1024;

    /** @return The paper's default intensity ladder: powers of two
     * from 2^-6 to 2^10 ops/byte. */
    static std::vector<double> defaultIntensities();
};

/**
 * ERT sweep driver.
 *
 * A SimSoc is single-threaded state, so run() takes a factory instead
 * of a live simulator: each worker of the pool builds (lazily, once)
 * its own SimSoc and runs a share of the trial batch on it. Every
 * trial resets the simulator, so samples are byte-identical for any
 * job count.
 */
class ErtSweep
{
  public:
    /** Builds one private simulator instance per pool worker. */
    using SocFactory =
        std::function<std::unique_ptr<sim::SimSoc>()>;

    /**
     * Run the kernel on engine @p engine_name, alone on the chip,
     * once per intensity in @p config, on simulators built by
     * @p make_soc.
     *
     * @param jobs  Worker count (1 = serial, 0 = hardware).
     * @param stats Optional out: worker count and busy time.
     */
    static std::vector<ErtSample> run(const SocFactory &make_soc,
                                      const std::string &engine_name,
                                      const ErtConfig &config,
                                      int jobs = 1,
                                      parallel::ForStats *stats = nullptr);

    /**
     * Sweep working-set size at fixed intensity to expose local-
     * memory bandwidth tiers (the paper's note that smaller arrays
     * hit in L1/L2 and see higher bandwidth).
     *
     * @param working_sets Working-set sizes (bytes) to probe.
     * @param intensity    Fixed kernel intensity (ops/byte).
     */
    static std::vector<ErtSample> workingSetSweep(
        sim::SimSoc &soc, const std::string &engine_name,
        const std::vector<double> &working_sets, double intensity,
        double bytes_per_point = 256.0 * 1024 * 1024);
};

} // namespace gables

#endif // GABLES_ERT_ERT_H
