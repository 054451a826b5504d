/**
 * @file
 * Cross-cutting integration tests:
 *
 *  - the Gables model is a (tight-ish) upper bound on the simulator
 *    for isolated runs, across random parameters;
 *  - the Figure 8 mixing experiment on the simulated Snapdragon
 *    reproduces the paper's shape: low-intensity offload slows the
 *    system down, high-intensity offload approaches the GPU's full
 *    acceleration;
 *  - model + plots + catalog compose end-to-end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/sweep.h"
#include "core/gables.h"
#include "ert/ert.h"
#include "ert/fitter.h"
#include "plot/roofline_plot.h"
#include "plot/series_plot.h"
#include "sim/soc.h"
#include "soc/catalog.h"
#include "util/rng.h"

namespace gables {
namespace {

/** Run the simulated kernel on a single-engine SoC. */
double
simulatedOpsRate(double ops_per_sec, double link_bw, double dram_bw,
                 double intensity)
{
    auto soc = SocCatalog::simpleSim(ops_per_sec, link_bw, dram_bw);
    sim::KernelJob job;
    job.workingSetBytes = 64e6;
    job.totalBytes = 64e6;
    job.opsPerByte = intensity;
    sim::SocRunStats stats = soc->run({{"IP0", job}});
    return stats.engine("IP0").achievedOpsRate();
}

TEST(ModelVsSim, ModelUpperBoundsSimulatorWithinTolerance)
{
    Rng rng(777);
    for (int trial = 0; trial < 12; ++trial) {
        double peak = rng.logUniform(1e9, 100e9);
        double link = rng.logUniform(2e9, 50e9);
        double dram = rng.logUniform(2e9, 50e9);
        double intensity = rng.logUniform(0.05, 64.0);

        SocSpec spec("s", peak, dram,
                     {IpSpec{"IP0", 1.0, link}});
        Usecase u("u", {IpWork{1.0, intensity}});
        double model = GablesModel::evaluate(spec, u).attainable;
        double sim = simulatedOpsRate(peak, link, dram, intensity);

        // The model is an upper bound (up to small simulation
        // start-up effects) and the simulator comes close to it.
        EXPECT_LE(sim, model * 1.02)
            << "trial " << trial << " peak=" << peak
            << " link=" << link << " dram=" << dram
            << " I=" << intensity;
        EXPECT_GE(sim, model * 0.90)
            << "trial " << trial << " peak=" << peak
            << " link=" << link << " dram=" << dram
            << " I=" << intensity;
    }
}

/** Run the Figure 8 mixing experiment point on the simulated chip. */
double
mixingPoint(sim::SimSoc &soc, double f, double intensity)
{
    const double total = 64e6; // total ops for the whole usecase
    std::vector<sim::SimSoc::JobSubmission> jobs;
    if (f < 1.0) {
        sim::KernelJob cpu;
        cpu.workingSetBytes = 64e6;
        cpu.totalBytes = (1.0 - f) * total / intensity;
        cpu.opsPerByte = intensity;
        jobs.push_back({"CPU", cpu});
    }
    if (f > 0.0) {
        sim::KernelJob gpu;
        gpu.workingSetBytes = 64e6;
        gpu.totalBytes = f * total / intensity;
        gpu.opsPerByte = intensity;
        gpu.coordinationTime = 1e-6; // offload handoff via the CPU
        jobs.push_back({"GPU", gpu});
    }
    sim::SocRunStats stats = soc.run(jobs);
    return total / stats.duration;
}

TEST(Figure8Shape, LowIntensityOffloadSlowsDown)
{
    auto soc = SocCatalog::snapdragon835Sim();
    double base = mixingPoint(*soc, 0.0, 1.0);
    double offloaded = mixingPoint(*soc, 1.0, 1.0);
    // The paper: low operational intensity work should not be
    // offloaded — performance drops (though not as catastrophically
    // as Figure 6b).
    EXPECT_LT(offloaded, base);
    EXPECT_GT(offloaded, base * 0.2);
}

TEST(Figure8Shape, HighIntensityOffloadApproachesAcceleration)
{
    auto soc = SocCatalog::snapdragon835Sim();
    double base = mixingPoint(*soc, 0.0, 1024.0);
    double offloaded = mixingPoint(*soc, 1.0, 1024.0);
    double speedup = offloaded / base;
    // The paper reports 39.4x at I = 1024 against a ~46.6x ceiling.
    EXPECT_GT(speedup, 30.0);
    EXPECT_LT(speedup, 48.0);
}

TEST(Figure8Shape, SpeedupGrowsWithIntensity)
{
    auto soc = SocCatalog::snapdragon835Sim();
    double prev = 0.0;
    for (double intensity : {1.0, 16.0, 256.0}) {
        double s = mixingPoint(*soc, 1.0, intensity) /
                   mixingPoint(*soc, 0.0, intensity);
        EXPECT_GT(s, prev);
        prev = s;
    }
}

TEST(ModelVsSim, MixingModelPredictsSimDirection)
{
    // The base Gables model (no coordination) must agree with the
    // simulator on WHERE offload helps: at high intensity both call
    // offload a win; the simulator's low-I slowdown comes from the
    // coordination bottleneck the base model deliberately omits.
    SocSpec spec = SocCatalog::snapdragon835();
    auto soc = SocCatalog::snapdragon835Sim();

    Series model_series = Sweep::mixing(spec, 1024.0, 1024.0,
                                        {0.0, 1.0});
    double sim_speedup = mixingPoint(*soc, 1.0, 1024.0) /
                         mixingPoint(*soc, 0.0, 1024.0);
    EXPECT_GT(model_series.y.back(), 1.0);
    EXPECT_GT(sim_speedup, 1.0);
    EXPECT_NEAR(model_series.y.back(), sim_speedup,
                model_series.y.back() * 0.25);
}

TEST(EndToEnd, Figure6PlotsRenderFromCatalog)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    struct Case {
        const char *name;
        SocSpec spec;
        Usecase usecase;
    };
    std::vector<Case> cases = {
        {"6a", soc, Usecase::twoIp("6a", 0.0, 8.0, 0.1)},
        {"6b", soc, Usecase::twoIp("6b", 0.75, 8.0, 0.1)},
        {"6c", soc.with(Param::bpeak(), 30e9), Usecase::twoIp("6c", 0.75, 8.0,
                                                   0.1)},
        {"6d", soc.with(Param::bpeak(), 20e9), Usecase::twoIp("6d", 0.75, 8.0,
                                                   8.0)},
    };
    for (const Case &c : cases) {
        RooflinePlot plot(c.name, 0.01, 100.0);
        plot.addGables(c.spec, c.usecase);
        std::string svg = plot.renderSvg();
        EXPECT_GT(svg.size(), 500u) << c.name;
        EXPECT_NE(svg.find("memory"), std::string::npos) << c.name;
    }
}

TEST(EndToEnd, ErtToRooflineToPlot)
{
    ErtConfig config;
    config.intensities = {0.0625, 0.5, 4.0, 64.0};
    config.workingSetBytes = 64e6;
    config.totalBytes = 64e6;
    auto samples =
        ErtSweep::run(SocCatalog::snapdragon835Sim, "CPU", config);
    RooflineFit fit = RooflineFitter::fitDram(samples);
    RooflinePlot plot("Figure 7a (sim)", 0.01, 100.0);
    plot.addRoofline(fit.roofline("CPU"));
    std::string ascii = plot.renderAscii();
    EXPECT_NE(ascii.find("CPU"), std::string::npos);
}

} // namespace
} // namespace gables
