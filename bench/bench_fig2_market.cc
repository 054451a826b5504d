/**
 * @file
 * Regenerates Figure 2: (a) mobile SoC chipsets introduced per year
 * and (b) IP blocks per SoC generation — the motivational datasets,
 * reconstructed shape-faithfully (see DESIGN.md).
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "analysis/sweep.h"
#include "bench_util.h"
#include "plot/series_plot.h"
#include "soc/market_data.h"
#include "util/table.h"

namespace {

using namespace gables;

Series
toSeries(const std::vector<YearCount> &data, const std::string &label)
{
    Series s;
    s.label = label;
    for (const YearCount &yc : data) {
        s.x.push_back(static_cast<double>(yc.year));
        s.y.push_back(yc.count);
    }
    return s;
}

void
reproduce()
{
    bench::banner("Figure 2a", "SoC chipsets per year (GSMArena mine)");
    TextTable ta({"year", "chipsets"});
    for (const YearCount &yc : MarketData::chipsetsPerYear())
        ta.addRow({std::to_string(yc.year),
                   formatDouble(yc.count, 0)});
    std::cout << ta.render();
    std::cout << "peak year: " << MarketData::peakChipsetYear()
              << " (paper: peak ~2015 then consolidation decline)\n";

    SeriesPlot pa("Figure 2a: SoC chipsets per year", "year",
                  "chipsets");
    pa.addSeries(toSeries(MarketData::chipsetsPerYear(), "chipsets"));
    bench::writeFigure("fig2a_chipsets.svg", pa.renderSvg());
    std::cout << pa.renderAscii();

    bench::banner("Figure 2b",
                  "IP blocks per SoC generation (after Shao et al.)");
    TextTable tb({"generation", "IP blocks"});
    for (const YearCount &yc : MarketData::ipBlocksPerGeneration())
        tb.addRow({std::to_string(yc.year),
                   formatDouble(yc.count, 0)});
    std::cout << tb.render();
    std::cout << "latest generation exceeds 30 IPs, as in the paper\n";

    SeriesPlot pb("Figure 2b: IP blocks per generation", "generation",
                  "IP blocks");
    pb.addSeries(
        toSeries(MarketData::ipBlocksPerGeneration(), "IP blocks"));
    bench::writeFigure("fig2b_ipblocks.svg", pb.renderSvg());
}

void
BM_SeriesRender(benchmark::State &state)
{
    SeriesPlot p("bench", "x", "y");
    p.addSeries(toSeries(MarketData::chipsetsPerYear(), "c"));
    for (auto _ : state) {
        benchmark::DoNotOptimize(p.renderSvg().size());
    }
}
BENCHMARK(BM_SeriesRender);

} // namespace

int
main(int argc, char **argv)
{
    reproduce();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
