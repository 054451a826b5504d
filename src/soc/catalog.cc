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

SocSpec
SocCatalog::snapdragon835()
{
    // Accelerations are relative to the CPU's measured (non-SIMD)
    // peak, matching the paper's A1 = 349.6 / 7.5 ~ 46.6 estimate.
    return SocSpec(
        "Snapdragon 835", kCpuPeakOps, kChipDramBw,
        {
            IpSpec{"CPU", 1.0, kCpuStreamBw},
            IpSpec{"GPU", kGpuPeakOps / kCpuPeakOps, kGpuStreamBw},
            IpSpec{"DSP", kDspPeakOps / kCpuPeakOps, kDspStreamBw},
        });
}

SocSpec
SocCatalog::snapdragon821()
{
    // Previous generation: ~15% lower CPU throughput, Adreno 530
    // (~407 GFLOPS theoretical, ~250 achieved-scale), LPDDR4 at a
    // slightly lower effective rate.
    const double cpu = 6.4e9;
    return SocSpec("Snapdragon 821", cpu, 28.0e9,
                   {
                       IpSpec{"CPU", 1.0, 14.0e9},
                       IpSpec{"GPU", 250.0e9 / cpu, 22.0e9},
                       IpSpec{"DSP", 2.4e9 / cpu, 5.0e9},
                   });
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

Roofline
SocCatalog::sd835CpuRooflineWithSimd()
{
    Roofline cpu(40.0e9, kCpuStreamBw, "CPU (NEON roof)");
    cpu.addComputeCeiling("without NEON", kCpuPeakOps);
    return cpu;
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
    return paperTwoIp().withBpeak(20.0e9);
}

namespace {

/**
 * Shared builder for the simulated Snapdragons; parameters are the
 * calibration anchors for each engine.
 */
std::unique_ptr<sim::SimSoc>
buildSnapdragonSim(const std::string &name, double dram_bw,
                   double cpu_ops, double cpu_bw, double gpu_ops,
                   double gpu_bw, double dsp_ops, double dsp_bw)
{
    auto soc = std::make_unique<sim::SimSoc>(name);
    soc->setDram(dram_bw, 100e-9);

    // CPU and GPU share the high-bandwidth fabric; the DSP sits on
    // the slower system fabric (paper Section IV-D attributes its low
    // bandwidth to "a different interconnect fabric").
    sim::BandwidthResource *hb_fabric =
        soc->addFabric("high-bandwidth fabric", 128.0e9, 20e-9);
    sim::BandwidthResource *sys_fabric =
        soc->addFabric("system fabric", 12.5e9, 40e-9);

    {
        sim::IpEngineConfig cfg;
        cfg.name = "CPU";
        cfg.opsPerSec = cpu_ops;
        cfg.requestBytes = 4096.0;
        cfg.maxOutstanding = 8;
        sim::SimSoc::EngineAttachment at;
        at.linkBandwidth = cpu_bw;
        at.linkLatency = 10e-9;
        at.fabric = hb_fabric;
        at.localCapacity = 2.0 * kMiB; // L2
        at.localBandwidth = 60.0e9;
        at.localLatency = 20e-9;
        soc->addEngine(cfg, at);
    }
    {
        sim::IpEngineConfig cfg;
        cfg.name = "GPU";
        cfg.opsPerSec = gpu_ops;
        cfg.requestBytes = 4096.0;
        cfg.maxOutstanding = 16;
        sim::SimSoc::EngineAttachment at;
        at.linkBandwidth = gpu_bw;
        at.linkLatency = 10e-9;
        at.fabric = hb_fabric;
        at.localCapacity = 1.0 * kMiB; // shader-core caches
        at.localBandwidth = 120.0e9;
        at.localLatency = 15e-9;
        at.coordinatorEngine = "CPU";
        soc->addEngine(cfg, at);
    }
    {
        sim::IpEngineConfig cfg;
        cfg.name = "DSP";
        cfg.opsPerSec = dsp_ops;
        cfg.requestBytes = 4096.0;
        cfg.maxOutstanding = 4;
        sim::SimSoc::EngineAttachment at;
        at.linkBandwidth = dsp_bw;
        at.linkLatency = 20e-9;
        at.fabric = sys_fabric;
        at.localCapacity = 512.0 * kKiB; // TCM/SRAM
        at.localBandwidth = 25.0e9;
        at.localLatency = 10e-9;
        at.coordinatorEngine = "CPU";
        soc->addEngine(cfg, at);
    }
    return soc;
}

} // namespace

std::unique_ptr<sim::SimSoc>
SocCatalog::snapdragon835Sim()
{
    return buildSnapdragonSim("Snapdragon 835 (sim)", kChipDramBw,
                              kCpuPeakOps, kCpuStreamBw, kGpuPeakOps,
                              kGpuStreamBw, kDspPeakOps, kDspStreamBw);
}

std::unique_ptr<sim::SimSoc>
SocCatalog::snapdragon821Sim()
{
    return buildSnapdragonSim("Snapdragon 821 (sim)", 28.0e9, 6.4e9,
                              14.0e9, 250.0e9, 22.0e9, 2.4e9, 5.0e9);
}

std::unique_ptr<sim::SimSoc>
SocCatalog::simFromSpec(const SocSpec &spec)
{
    spec.validate();
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
        sim::IpEngineConfig cfg;
        cfg.name = spec.ip(i).name.empty()
                       ? "IP" + std::to_string(i)
                       : spec.ip(i).name;
        cfg.opsPerSec = spec.ipPeakPerf(i);
        cfg.requestBytes = 4096.0;
        cfg.maxOutstanding = 8;
        sim::SimSoc::EngineAttachment at;
        at.linkBandwidth = spec.ip(i).bandwidth;
        at.linkLatency = 10e-9;
        at.fabric = fabric;
        soc->addEngine(cfg, at);
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

    sim::IpEngineConfig cfg;
    cfg.name = "IP0";
    cfg.opsPerSec = ops_per_sec;
    cfg.requestBytes = 4096.0;
    cfg.maxOutstanding = 8;
    sim::SimSoc::EngineAttachment at;
    at.linkBandwidth = link_bw;
    at.linkLatency = 10e-9;
    at.fabric = fabric;
    soc->addEngine(cfg, at);
    return soc;
}

} // namespace gables
