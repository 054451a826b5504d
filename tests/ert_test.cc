/**
 * @file
 * Tests for the ERT sweep driver and roofline fitter: fits on the
 * simulated chips must recover the configured rates, and the fitter
 * must behave sensibly on synthetic data.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ert/ert.h"
#include "ert/fitter.h"
#include "soc/catalog.h"
#include "util/logging.h"
#include "util/units.h"

namespace gables {
namespace {

TEST(ErtConfig, DefaultIntensityLadder)
{
    auto ladder = ErtConfig::defaultIntensities();
    ASSERT_EQ(ladder.size(), 17u);
    EXPECT_DOUBLE_EQ(ladder.front(), std::pow(2.0, -6));
    EXPECT_DOUBLE_EQ(ladder.back(), 1024.0);
    for (size_t i = 1; i < ladder.size(); ++i)
        EXPECT_DOUBLE_EQ(ladder[i], 2.0 * ladder[i - 1]);
}

/** The one-engine simulator of the ERT sweep tests: 10 Gops/s, a
 * 20 GB/s link, 40 GB/s DRAM. */
std::unique_ptr<sim::SimSoc>
simpleChip()
{
    return SocCatalog::simpleSim(10e9, 20e9, 40e9);
}

TEST(ErtSweep, RecoversConfiguredRoofline)
{
    ErtConfig config;
    config.intensities = {0.0625, 0.25, 0.5, 2.0, 8.0, 64.0};
    auto samples = ErtSweep::run(simpleChip, "IP0", config);
    ASSERT_EQ(samples.size(), config.intensities.size());
    RooflineFit fit = RooflineFitter::fitDram(samples);
    EXPECT_NEAR(fit.peakOps, 10e9, 10e9 * 0.02);
    EXPECT_NEAR(fit.peakBw, 20e9, 20e9 * 0.02);
    EXPECT_NEAR(fit.ridge, 0.5, 0.02);
    EXPECT_LT(fit.maxRelResidual, 0.05);
}

TEST(ErtSweep, SamplesMonotoneInIntensityUntilPlateau)
{
    ErtConfig config;
    config.intensities = ErtConfig::defaultIntensities();
    auto samples = ErtSweep::run(simpleChip, "IP0", config);
    for (size_t i = 1; i < samples.size(); ++i)
        EXPECT_GE(samples[i].opsRate,
                  samples[i - 1].opsRate * (1.0 - 1e-6));
}

TEST(ErtSweep, EmptyIntensitiesRejected)
{
    ErtConfig config;
    EXPECT_THROW(ErtSweep::run(simpleChip, "IP0", config), FatalError);
}

TEST(ErtSweep, WorkingSetSweepShowsCacheTiers)
{
    auto soc = SocCatalog::snapdragon835Sim();
    // CPU: 2 MiB L2 at 60 GB/s over a 15.1 GB/s link. Streaming
    // intensity so bandwidth dominates.
    auto samples = ErtSweep::workingSetSweep(
        *soc, "CPU", {256.0 * 1024, 1.0 * kMiB, 64.0 * kMiB,
                      256.0 * kMiB},
        0.01, 64e6);
    ASSERT_EQ(samples.size(), 4u);
    // In-cache sets run at ~60 GB/s; spilled sets near the link.
    EXPECT_NEAR(samples[0].byteRate, 60e9, 60e9 * 0.05);
    EXPECT_NEAR(samples[1].byteRate, 60e9, 60e9 * 0.05);
    EXPECT_LT(samples[3].byteRate, 18e9);
    EXPECT_GT(samples[3].byteRate, 14e9);
    // Bandwidth never increases as the set grows.
    for (size_t i = 1; i < samples.size(); ++i)
        EXPECT_LE(samples[i].byteRate,
                  samples[i - 1].byteRate * (1.0 + 1e-6));
}

TEST(Fitter, TotalVersusDramRates)
{
    ErtConfig config;
    config.intensities = {0.0625, 0.125, 64.0};
    config.workingSetBytes = 1.0 * kMiB; // fits the CPU L2
    config.totalBytes = 64e6;
    auto samples =
        ErtSweep::run(SocCatalog::snapdragon835Sim, "CPU", config);
    // In-cache streaming: the total rate is the 60 GB/s L2, while the
    // DRAM-rate fit would see ~0 traffic; it must reject that.
    EXPECT_NEAR(samples.front().byteRate, 60e9, 60e9 * 0.05);
    EXPECT_THROW(RooflineFitter::fitDram(samples), FatalError);
}

TEST(Fitter, SyntheticSamplesExactFit)
{
    std::vector<ErtSample> samples;
    for (double i : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        ErtSample s;
        s.opsPerByte = i;
        s.opsRate = std::min(8e9, 4e9 * i);
        s.byteRate = s.opsRate / i;
        s.missByteRate = s.byteRate;
        samples.push_back(s);
    }
    RooflineFit fit = RooflineFitter::fitDram(samples);
    EXPECT_DOUBLE_EQ(fit.peakOps, 8e9);
    EXPECT_DOUBLE_EQ(fit.peakBw, 4e9);
    EXPECT_DOUBLE_EQ(fit.ridge, 2.0);
    EXPECT_NEAR(fit.maxRelResidual, 0.0, 1e-12);
}

TEST(Fitter, ResidualDetectsNonRooflineData)
{
    // A dip below the roofline at mid intensity shows up in the
    // residual.
    std::vector<ErtSample> samples;
    for (double i : {0.5, 1.0, 2.0, 8.0}) {
        ErtSample s;
        s.opsPerByte = i;
        s.opsRate = std::min(8e9, 4e9 * i);
        if (i == 2.0)
            s.opsRate *= 0.5; // anomaly
        s.missByteRate = s.opsRate / i;
        samples.push_back(s);
    }
    RooflineFit fit = RooflineFitter::fitDram(samples);
    EXPECT_GT(fit.maxRelResidual, 0.4);
}

TEST(Fitter, EmptyAndDegenerateInputsRejected)
{
    EXPECT_THROW(RooflineFitter::fitDram({}), FatalError);
    ErtSample zero;
    zero.opsPerByte = 1.0;
    EXPECT_THROW(RooflineFitter::fitDram({zero}), FatalError);
}

TEST(Fitter, RooflineObjectConstruction)
{
    RooflineFit fit;
    fit.peakOps = 7.5e9;
    fit.peakBw = 15.1e9;
    Roofline r = fit.roofline("CPU");
    EXPECT_EQ(r.name(), "CPU");
    EXPECT_DOUBLE_EQ(r.peakPerf(), 7.5e9);
    EXPECT_DOUBLE_EQ(r.peakBw(), 15.1e9);
}

} // namespace
} // namespace gables
