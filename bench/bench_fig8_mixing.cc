/**
 * @file
 * Regenerates Figure 8: performance vs fraction of work offloaded to
 * the GPU (f from 0 to 1 in eighths) for operational intensities 1
 * to 1024, normalized to all-work-on-CPU at I = 1... (as the paper
 * normalizes, all-on-CPU per line is ~the same 7.5 Gops/s). Runs the
 * experiment twice: on the simulated Snapdragon (with offload
 * coordination through the CPU, reproducing the paper's low-I
 * slowdown) and with the analytic Gables model (which omits
 * coordination, the comparison the paper draws in Section IV-C).
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "analysis/sweep.h"
#include "bench_util.h"
#include "plot/heatmap.h"
#include "plot/series_plot.h"
#include "sim/soc.h"
#include "soc/catalog.h"
#include "util/table.h"

namespace {

using namespace gables;

/** One simulated mixing point: total work split f to the GPU. */
double
mixingPoint(sim::SimSoc &soc, double f, double intensity)
{
    const double total_ops = 64e6;
    std::vector<sim::SimSoc::JobSubmission> jobs;
    if (f < 1.0) {
        sim::KernelJob cpu;
        cpu.workingSetBytes = 64e6;
        cpu.totalBytes = (1.0 - f) * total_ops / intensity;
        cpu.opsPerByte = intensity;
        jobs.push_back({"CPU", cpu});
    }
    if (f > 0.0) {
        sim::KernelJob gpu;
        gpu.workingSetBytes = 64e6;
        gpu.totalBytes = f * total_ops / intensity;
        gpu.opsPerByte = intensity;
        gpu.coordinationTime = 1e-6; // buffer handoff via the CPU
        jobs.push_back({"GPU", gpu});
    }
    return total_ops / soc.run(jobs).duration;
}

void
reproduce()
{
    const std::vector<double> intensities = {1.0, 4.0, 16.0, 64.0,
                                             256.0, 1024.0};
    std::vector<double> fractions;
    for (int i = 0; i <= 8; ++i)
        fractions.push_back(i / 8.0);

    bench::banner("Figure 8",
                  "normalized perf vs GPU work fraction (simulated)");

    auto soc = SocCatalog::snapdragon835Sim();
    std::vector<std::string> headers = {"f"};
    for (double i : intensities)
        headers.push_back("I=" + formatDouble(i, 0));
    TextTable t(headers);

    std::vector<Series> sim_series(intensities.size());
    std::vector<double> base(intensities.size());
    for (size_t k = 0; k < intensities.size(); ++k) {
        base[k] = mixingPoint(*soc, 0.0, intensities[k]);
        sim_series[k].label = "I=" + formatDouble(intensities[k], 0);
    }
    for (double f : fractions) {
        std::vector<std::string> row = {formatDouble(f, 3)};
        for (size_t k = 0; k < intensities.size(); ++k) {
            double norm =
                mixingPoint(*soc, f, intensities[k]) / base[k];
            row.push_back(formatDouble(norm, 3));
            sim_series[k].x.push_back(f);
            sim_series[k].y.push_back(norm);
        }
        t.addRow(row);
    }
    std::cout << t.render();

    // The paper's headline observations.
    double low_i_full = sim_series.front().y.back();
    double high_i_full = sim_series.back().y.back();
    std::cout << "\nobservations (paper Section IV-C):\n"
              << "  offload at I=1 -> " << formatDouble(low_i_full, 2)
              << "x ("
              << (low_i_full < 1.0 ? "slowdown, as in the paper"
                                   : "UNEXPECTED speedup")
              << ")\n"
              << "  offload at I=1024 -> "
              << formatDouble(high_i_full, 1)
              << "x (paper reports 39.4x on silicon)\n";

    SeriesPlot plot("Figure 8 (sim): mixing on Snapdragon 835",
                    "fraction f at GPU", "normalized performance");
    plot.setScales(Scale::Linear, Scale::Log);
    for (const Series &s : sim_series)
        plot.addSeries(s);
    bench::writeFigure("fig8_mixing.svg", plot.renderSvg());

    // Analytic counterpart from the base model (no coordination).
    bench::banner("Figure 8 (model)",
                  "base Gables prediction for the same sweep");
    SocSpec spec = SocCatalog::snapdragon835();
    TextTable mt(headers);
    std::vector<Series> model_series;
    for (double i : intensities)
        model_series.push_back(Sweep::mixing(spec, i, i, fractions));
    for (size_t fi = 0; fi < fractions.size(); ++fi) {
        std::vector<std::string> row = {formatDouble(fractions[fi],
                                                     3)};
        for (const Series &s : model_series)
            row.push_back(formatDouble(s.y[fi], 3));
        mt.addRow(row);
    }
    std::cout << mt.render()
              << "note: the base model omits the CPU-routed "
                 "coordination bottleneck,\nso it misses the low-I "
                 "slowdown the silicon (and our simulator) shows.\n";

    // The whole family as one heatmap (simulated data).
    std::vector<std::string> x_ticks, y_ticks;
    for (double f : fractions)
        x_ticks.push_back(formatDouble(f, 3));
    std::vector<std::vector<double>> grid;
    for (size_t k = 0; k < intensities.size(); ++k) {
        y_ticks.push_back("I=" + formatDouble(intensities[k], 0));
        grid.push_back(sim_series[k].y);
    }
    HeatmapPlot map("Figure 8 as a heatmap (simulated)",
                    "fraction f at GPU", "operational intensity");
    map.setGrid(x_ticks, y_ticks, grid);
    map.setLogScale(true);
    bench::writeFigure("fig8_heatmap.svg", map.renderSvg());
    std::cout << map.renderAscii();
}

void
BM_MixingPoint(benchmark::State &state)
{
    auto soc = SocCatalog::snapdragon835Sim();
    for (auto _ : state) {
        benchmark::DoNotOptimize(mixingPoint(*soc, 0.5, 16.0));
    }
}
BENCHMARK(BM_MixingPoint)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    reproduce();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
