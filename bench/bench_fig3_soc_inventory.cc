/**
 * @file
 * Regenerates Figure 3 (as a table): the block inventory of a
 * modern mobile SoC — IPs, their accelerations and link bandwidths,
 * and the fabric hierarchy of the simulated chip.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "plot/roofline_plot.h"
#include "soc/catalog.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace gables;

void
reproduce()
{
    bench::banner("Figure 3",
                  "SoC block inventory (Snapdragon-835-like)");
    SocSpec soc = SocCatalog::snapdragon835Full();
    TextTable t({"IP", "acceleration Ai", "peak Gops/s",
                 "link Bi GB/s"});
    for (size_t i = 0; i < soc.numIps(); ++i) {
        const IpSpec &ip = soc.ip(i);
        t.addRow({ip.name, formatDouble(ip.acceleration, 2),
                  formatDouble(soc.ipPeakPerf(i) / 1e9, 1),
                  formatDouble(ip.bandwidth / 1e9, 1)});
    }
    std::cout << t.render();
    std::cout << "Ppeak (IP[0]) = " << formatOpsRate(soc.ppeak())
              << ", Bpeak = " << formatByteRate(soc.bpeak()) << '\n';

    // All ten isolated IP rooflines on one chart (the paper's
    // Section III observation that each IP has its own roofline).
    RooflinePlot plot("All IP rooflines, Snapdragon-835-like", 0.015,
                      128.0);
    for (size_t i = 0; i < soc.numIps(); ++i)
        plot.addRoofline(soc.ipRoofline(i));
    bench::writeFigure("fig3_all_ips.svg", plot.renderSvg(900.0, 560.0));

    bench::banner("Figure 3 (fabrics)",
                  "interconnect hierarchy of the simulated chip");
    std::cout
        << "  DRAM controller        29.8 GB/s, 100 ns\n"
        << "  high-bandwidth fabric  128 GB/s, 20 ns  <- CPU, GPU\n"
        << "  system fabric          12.5 GB/s, 40 ns <- DSP\n"
        << "  (paper: IPs cluster into fabrics by bandwidth needs)\n";
}

void
BM_CatalogConstruction(benchmark::State &state)
{
    for (auto _ : state) {
        SocSpec soc = SocCatalog::snapdragon835Full();
        benchmark::DoNotOptimize(soc.numIps());
    }
}
BENCHMARK(BM_CatalogConstruction);

} // namespace

int
main(int argc, char **argv)
{
    reproduce();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
