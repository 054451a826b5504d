/**
 * @file
 * Regenerates Figure 1: the classic Roofline plot (Williams et al.)
 * that Gables builds on — a multicore chip with compute and
 * bandwidth ceilings — and demonstrates ridge-point reasoning.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "core/roofline.h"
#include "plot/roofline_plot.h"
#include "util/table.h"

namespace {

using namespace gables;

void
reproduce()
{
    bench::banner("Figure 1", "classic Roofline model with ceilings");

    // A generic multicore in the spirit of the original paper.
    Roofline chip(64e9, 16e9, "multicore");
    chip.addComputeCeiling("without SIMD", 16e9);
    chip.addComputeCeiling("without ILP", 32e9);
    chip.addBandwidthCeiling("without prefetch", 8e9);

    TextTable t({"I (ops/B)", "roof Gops/s", "w/ ceilings Gops/s",
                 "region"});
    for (double i : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0}) {
        t.addRow({formatDouble(i, 3),
                  formatDouble(chip.attainable(i) / 1e9, 2),
                  formatDouble(chip.attainableWithCeilings(i) / 1e9,
                               2),
                  chip.computeBound(i) ? "compute" : "bandwidth"});
    }
    std::cout << t.render();
    std::cout << "ridge point: " << chip.ridgePoint() << " ops/B\n";

    RooflinePlot plot("Figure 1: Roofline model", 0.1, 128.0);
    plot.addRoofline(chip);
    bench::writeFigure("fig1_roofline.svg", plot.renderSvg());
    std::cout << plot.renderAscii();
}

void
BM_RooflineAttainable(benchmark::State &state)
{
    Roofline chip(64e9, 16e9);
    double i = 0.1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(chip.attainable(i));
        i = i < 100.0 ? i * 1.1 : 0.1;
    }
}
BENCHMARK(BM_RooflineAttainable);

} // namespace

int
main(int argc, char **argv)
{
    reproduce();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
