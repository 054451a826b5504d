#include "soc/catalog.h"

#include "util/logging.h"
#include "util/parse.h"
#include "util/strings.h"
#include "util/units.h"

namespace gables {

const std::vector<NamedSoc> &
SocCatalog::named()
{
    static const std::vector<NamedSoc> table = {
        {"sd835", snapdragon835, snapdragon835Sim},
        {"sd835-full", snapdragon835Full, nullptr},
        {"sd821", snapdragon821, snapdragon821Sim},
        {"paper", paperTwoIp, nullptr},
        {"paper-balanced", paperTwoIpBalanced, nullptr},
    };
    return table;
}

const NamedSoc &
SocCatalog::byName(const std::string &name)
{
    if (name.empty())
        return named().front();
    std::vector<std::string> names;
    for (const NamedSoc &soc : named()) {
        if (soc.name == name)
            return soc;
        names.push_back(soc.name);
    }
    fatal("unknown SoC '" + name + "'" + didYouMean(name, names) +
          " (try " + join(names, ", ") + ")");
}

namespace {

/**
 * The calibration anchors of one Snapdragon: its DRAM bandwidth and
 * each engine's peak ops and stream bandwidth. The spec and the
 * simulator of a chip are both built from one of these, so the spec
 * cannot drift from the simulator it is checked against.
 */
struct Calibration {
    double dramBw;
    double cpuOps;
    double cpuBw;
    double gpuOps;
    double gpuBw;
    double dspOps;
    double dspBw;
};

constexpr Calibration kSd835{.dramBw = SocCatalog::kChipDramBw,
                             .cpuOps = SocCatalog::kCpuPeakOps,
                             .cpuBw = SocCatalog::kCpuStreamBw,
                             .gpuOps = SocCatalog::kGpuPeakOps,
                             .gpuBw = SocCatalog::kGpuStreamBw,
                             .dspOps = SocCatalog::kDspPeakOps,
                             .dspBw = SocCatalog::kDspStreamBw};

// Previous generation: ~15% lower CPU throughput, Adreno 530 (~407
// GFLOPS theoretical, ~250 achieved-scale), LPDDR4 at a slightly
// lower effective rate.
constexpr Calibration kSd821{.dramBw = 28.0e9,
                             .cpuOps = 6.4e9,
                             .cpuBw = 14.0e9,
                             .gpuOps = 250.0e9,
                             .gpuBw = 22.0e9,
                             .dspOps = 2.4e9,
                             .dspBw = 5.0e9};

/** The spec of a calibrated Snapdragon. Accelerations are relative
 * to the CPU's measured (non-SIMD) peak, matching the paper's A1 =
 * 349.6 / 7.5 ~ 46.6 estimate for the 835. */
SocSpec
snapdragonSpec(const std::string &name, const Calibration &c)
{
    return SocSpec(name, c.cpuOps, c.dramBw,
                   {
                       IpSpec{"CPU", 1.0, c.cpuBw},
                       IpSpec{"GPU", c.gpuOps / c.cpuOps, c.gpuBw},
                       IpSpec{"DSP", c.dspOps / c.cpuOps, c.dspBw},
                   });
}

} // namespace

SocSpec
SocCatalog::snapdragon835()
{
    return snapdragonSpec("Snapdragon 835", kSd835);
}

SocSpec
SocCatalog::snapdragon821()
{
    return snapdragonSpec("Snapdragon 821", kSd821);
}

SocSpec
SocCatalog::snapdragon835Full()
{
    // Table I column order. Fixed-function accelerations are
    // spec-sheet-style estimates (ops here are generic "operations",
    // so a 4K60 video decoder that sustains ~50 Gops-equivalent is
    // A ~ 6.7): see DESIGN.md's substitution table.
    const double p = kCpuPeakOps;
    return SocSpec(
        "Snapdragon 835 (full)", p, kChipDramBw,
        {
            IpSpec{"AP", 1.0, kCpuStreamBw},
            IpSpec{"Display", 12.0e9 / p, 8.0e9},
            IpSpec{"G2DS", 20.0e9 / p, 10.0e9},
            IpSpec{"GPU", kGpuPeakOps / p, kGpuStreamBw},
            IpSpec{"ISP", 120.0e9 / p, 25.0e9},
            IpSpec{"JPEG", 15.0e9 / p, 6.0e9},
            IpSpec{"IPU", 180.0e9 / p, 10.0e9},
            IpSpec{"VDEC", 50.0e9 / p, 8.0e9},
            IpSpec{"VENC", 120.0e9 / p, 12.0e9},
            IpSpec{"DSP", kDspPeakOps / p, kDspStreamBw},
        });
}

SocSpec
SocCatalog::paperTwoIp()
{
    return SocSpec("paper two-IP", 40.0e9, 10.0e9,
                   {
                       IpSpec{"CPU", 1.0, 6.0e9},
                       IpSpec{"GPU", 5.0, 15.0e9},
                   });
}

SocSpec
SocCatalog::paperTwoIpBalanced()
{
    return paperTwoIp().with(Param::bpeak(), 20.0e9);
}

namespace {

/** Shared builder for the simulated Snapdragons, from a chip's
 * calibration anchors. */
std::unique_ptr<sim::SimSoc>
buildSnapdragonSim(const std::string &name, const Calibration &c)
{
    auto soc = std::make_unique<sim::SimSoc>(name);
    soc->setDram(c.dramBw, 100e-9);

    // CPU and GPU share the high-bandwidth fabric; the DSP sits on
    // the slower system fabric (paper Section IV-D attributes its low
    // bandwidth to "a different interconnect fabric").
    sim::BandwidthResource *hb_fabric =
        soc->addFabric("high-bandwidth fabric", 128.0e9, 20e-9);
    sim::BandwidthResource *sys_fabric =
        soc->addFabric("system fabric", 12.5e9, 40e-9);

    // Every engine issues 4 KiB requests (the IpEngineConfig default).
    struct EngineRow {
        sim::IpEngineConfig config;
        sim::SimSoc::EngineAttachment attach;
    };
    const EngineRow rows[] = {
        {{.name = "CPU", .opsPerSec = c.cpuOps, .maxOutstanding = 8},
         {.linkBandwidth = c.cpuBw,
          .linkLatency = 10e-9,
          .fabric = hb_fabric,
          .localCapacity = 2.0 * kMiB, // L2
          .localBandwidth = 60.0e9,
          .localLatency = 20e-9}},
        {{.name = "GPU", .opsPerSec = c.gpuOps, .maxOutstanding = 16},
         {.linkBandwidth = c.gpuBw,
          .linkLatency = 10e-9,
          .fabric = hb_fabric,
          .localCapacity = 1.0 * kMiB, // shader-core caches
          .localBandwidth = 120.0e9,
          .localLatency = 15e-9,
          .coordinatorEngine = "CPU"}},
        {{.name = "DSP", .opsPerSec = c.dspOps, .maxOutstanding = 4},
         {.linkBandwidth = c.dspBw,
          .linkLatency = 20e-9,
          .fabric = sys_fabric,
          .localCapacity = 512.0 * kKiB, // TCM/SRAM
          .localBandwidth = 25.0e9,
          .localLatency = 10e-9,
          .coordinatorEngine = "CPU"}},
    };
    for (const EngineRow &row : rows)
        soc->addEngine(row.config, row.attach);
    return soc;
}

} // namespace

std::unique_ptr<sim::SimSoc>
SocCatalog::snapdragon835Sim()
{
    return buildSnapdragonSim("Snapdragon 835 (sim)", kSd835);
}

std::unique_ptr<sim::SimSoc>
SocCatalog::snapdragon821Sim()
{
    return buildSnapdragonSim("Snapdragon 821 (sim)", kSd821);
}

std::unique_ptr<sim::SimSoc>
SocCatalog::simFromSpec(const SocSpec &spec)
{
    auto soc = std::make_unique<sim::SimSoc>(spec.name() + " (sim)");
    soc->setDram(spec.bpeak(), 100e-9);
    // One wide fabric so only the modeled bandwidths (Bi, Bpeak)
    // constrain transfers.
    double fabric_bw = spec.bpeak();
    for (const IpSpec &ip : spec.ips())
        fabric_bw = std::max(fabric_bw, ip.bandwidth);
    sim::BandwidthResource *fabric =
        soc->addFabric("fabric", 8.0 * fabric_bw, 10e-9);

    for (size_t i = 0; i < spec.numIps(); ++i) {
        const IpSpec &ip = spec.ip(i);
        soc->addEngine(
            {.name = ip.name.empty() ? "IP" + std::to_string(i) : ip.name,
             .opsPerSec = spec.ipPeakPerf(i)},
            {.linkBandwidth = ip.bandwidth,
             .linkLatency = 10e-9,
             .fabric = fabric});
    }
    return soc;
}

std::unique_ptr<sim::SimSoc>
SocCatalog::simpleSim(double ops_per_sec, double link_bw, double dram_bw)
{
    auto soc = std::make_unique<sim::SimSoc>("simple");
    soc->setDram(dram_bw, 100e-9);
    sim::BandwidthResource *fabric =
        soc->addFabric("fabric", 4.0 * dram_bw, 20e-9);

    soc->addEngine(
        {.name = "IP0", .opsPerSec = ops_per_sec},
        {.linkBandwidth = link_bw, .linkLatency = 10e-9, .fabric = fabric});
    return soc;
}

} // namespace gables
