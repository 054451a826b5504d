/**
 * @file
 * Regenerates Figure 7 (a: CPU roofline, b: GPU roofline) by running
 * the ERT micro-benchmark on the simulated Snapdragon 835 and
 * fitting rooflines, compared against the paper's measured anchors.
 * Also emits the SVG rooflines and times a full ERT sweep.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "ert/ert.h"
#include "ert/fitter.h"
#include "plot/roofline_plot.h"
#include "soc/catalog.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace gables;

void
reproduceEngine(const char *engine, const char *figure,
                double paper_peak_gops, double paper_bw_gbs)
{
    ErtConfig config;
    config.intensities = ErtConfig::defaultIntensities();
    config.workingSetBytes = 64e6;
    config.totalBytes = 128e6;
    auto samples =
        ErtSweep::run(SocCatalog::snapdragon835Sim, engine, config);
    RooflineFit fit = RooflineFitter::fitDram(samples);

    bench::banner(figure, std::string(engine) +
                              " empirical roofline (simulated chip)");
    TextTable t({"I (ops/B)", "Gops/s", "DRAM GB/s"});
    for (const ErtSample &s : samples) {
        t.addRow({formatDouble(s.opsPerByte, 4),
                  formatDouble(s.opsRate / 1e9, 3),
                  formatDouble(s.missByteRate / 1e9, 3)});
    }
    std::cout << t.render();

    bench::ComparisonTable cmp;
    cmp.add("peak performance", paper_peak_gops, fit.peakOps / 1e9,
            "Gops/s");
    cmp.add("DRAM bandwidth", paper_bw_gbs, fit.peakBw / 1e9, "GB/s");
    cmp.add("ridge point", paper_peak_gops / paper_bw_gbs, fit.ridge,
            "ops/B");
    cmp.print();

    RooflinePlot plot(std::string(figure) + " " + engine +
                          " roofline (sim)",
                      0.015, 128.0);
    plot.addRoofline(fit.roofline(engine));
    bench::writeFigure(std::string("fig7_") + engine + ".svg",
                       plot.renderSvg());
}

void
BM_ErtSweepCpu(benchmark::State &state)
{
    ErtConfig config;
    config.intensities = {0.125, 1.0, 8.0};
    config.workingSetBytes = 16e6;
    config.totalBytes = 16e6;
    for (auto _ : state) {
        auto samples =
            ErtSweep::run(SocCatalog::snapdragon835Sim, "CPU", config);
        benchmark::DoNotOptimize(samples.back().opsRate);
    }
}
BENCHMARK(BM_ErtSweepCpu)->Unit(benchmark::kMillisecond);

} // namespace

void
reproduceSd821()
{
    // Section IV-A: "Our findings hold true for both systems" — the
    // same harness traces the previous-generation chip's rooflines.
    bench::banner("Section IV-A",
                  "the same sweep on the Snapdragon 821 (sim)");
    ErtConfig config;
    config.intensities = {0.0625, 0.25, 1.0, 4.0, 64.0, 1024.0};
    config.workingSetBytes = 64e6;
    config.totalBytes = 64e6;
    TextTable t({"engine", "peak Gops/s", "DRAM GB/s"});
    for (const char *engine : {"CPU", "GPU", "DSP"}) {
        auto samples =
            ErtSweep::run(SocCatalog::snapdragon821Sim, engine, config);
        RooflineFit fit = RooflineFitter::fitDram(samples);
        t.addRow({engine, formatDouble(fit.peakOps / 1e9, 2),
                  formatDouble(fit.peakBw / 1e9, 2)});
    }
    std::cout << t.render()
              << "one generation back: same shapes, slightly lower "
                 "rates -- the paper's cross-chip consistency claim\n";
}

int
main(int argc, char **argv)
{
    reproduceEngine("CPU", "Figure 7a", 7.5, 15.1);
    reproduceEngine("GPU", "Figure 7b", 349.6, 24.4);
    reproduceSd821();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
