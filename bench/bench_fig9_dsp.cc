/**
 * @file
 * Regenerates Figure 9: the Hexagon DSP scalar-unit roofline, on the
 * simulated Snapdragon 835 where the DSP hangs off the slower system
 * fabric. Confirms the paper's observation that its bandwidth is far
 * below the CPU's and GPU's.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "ert/ert.h"
#include "ert/fitter.h"
#include "plot/roofline_plot.h"
#include "soc/catalog.h"
#include "util/table.h"

namespace {

using namespace gables;

void
reproduce()
{
    ErtConfig config;
    config.intensities = ErtConfig::defaultIntensities();
    config.workingSetBytes = 64e6;
    config.totalBytes = 64e6;
    auto samples =
        ErtSweep::run(SocCatalog::snapdragon835Sim, "DSP", config);
    RooflineFit fit = RooflineFitter::fitDram(samples);

    bench::banner("Figure 9",
                  "DSP scalar-unit roofline (simulated chip)");
    TextTable t({"I (ops/B)", "Gops/s", "DRAM GB/s"});
    for (const ErtSample &s : samples) {
        t.addRow({formatDouble(s.opsPerByte, 4),
                  formatDouble(s.opsRate / 1e9, 3),
                  formatDouble(s.missByteRate / 1e9, 3)});
    }
    std::cout << t.render();

    bench::ComparisonTable cmp;
    cmp.add("peak performance (scalar)", 3.0, fit.peakOps / 1e9,
            "Gops/s");
    cmp.add("DRAM bandwidth", 5.4, fit.peakBw / 1e9, "GB/s");
    cmp.print();

    // The paper attributes the low bandwidth to the DSP's separate
    // fabric; compare against the CPU/GPU anchors.
    std::cout << "\nDSP bandwidth vs CPU (15.1) and GPU (24.4) GB/s: "
              << formatDouble(fit.peakBw / 1e9, 3)
              << " GB/s -- a different, slower interconnect fabric\n";

    RooflinePlot plot("Figure 9 DSP roofline (sim)", 0.015, 128.0);
    plot.addRoofline(fit.roofline("DSP"));
    bench::writeFigure("fig9_dsp.svg", plot.renderSvg());
}

void
BM_ErtSweepDsp(benchmark::State &state)
{
    ErtConfig config;
    config.intensities = {0.125, 1.0, 8.0};
    config.workingSetBytes = 16e6;
    config.totalBytes = 16e6;
    for (auto _ : state) {
        auto samples =
            ErtSweep::run(SocCatalog::snapdragon835Sim, "DSP", config);
        benchmark::DoNotOptimize(samples.back().opsRate);
    }
}
BENCHMARK(BM_ErtSweepDsp)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    reproduce();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
