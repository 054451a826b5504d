/**
 * @file
 * Regenerates Table I (the usecase x IP concurrency matrix) and the
 * Figure 4 WiFi-streaming dataflow, then analyzes every catalog
 * usecase on the full Snapdragon-835-like SoC: sustainable frame
 * rate, bottleneck, and DRAM traffic (the Section II-B narrative).
 */

#include <benchmark/benchmark.h>

#include <iostream>


#include "bench_util.h"
#include "plot/heatmap.h"
#include "soc/catalog.h"
#include "soc/usecases.h"
#include "util/table.h"

namespace {

using namespace gables;

void
reproduceTableOne()
{
    bench::banner("Table I", "usecase x IP concurrency matrix");
    std::vector<std::string> headers = {"Usecase"};
    for (const std::string &ip : UsecaseCatalog::ipColumns())
        headers.push_back(ip);
    TextTable t(headers);
    for (const auto &[name, row] : UsecaseCatalog::tableOneMatrix()) {
        std::vector<std::string> cells = {name};
        for (bool active : row)
            cells.push_back(active ? "X" : "");
        t.addRow(cells);
    }
    std::cout << t.render();
    std::cout << "every usecase exercises >= 5 IPs concurrently, as "
                 "the paper's Table I shows\n";
}

void
reproduceFigure4()
{
    bench::banner("Figure 4", "WiFi streaming usecase dataflow");
    DataflowGraph g = UsecaseCatalog::wifiStreaming().graph;
    TextTable t({"buffer", "producer", "consumer", "MB/frame"});
    for (const DataflowBuffer &b : g.buffers()) {
        t.addRow({b.label, b.producer.empty() ? "(ext)" : b.producer,
                  b.consumer.empty() ? "(ext)" : b.consumer,
                  formatDouble(b.bytesPerFrame / 1e6, 3)});
    }
    std::cout << t.render();
}

void
analyzeUsecases()
{
    bench::banner("Usecase analysis",
                  "extended catalog on the full Snapdragon-835 spec");
    SocSpec soc = SocCatalog::snapdragon835Full();
    TextTable t({"usecase", "target fps", "max fps", "meets?",
                 "bottleneck", "DRAM GB/s @ target"});
    for (const UsecaseEntry &entry : UsecaseCatalog::extended()) {
        DataflowAnalysis a = entry.graph.analyze(soc);
        std::string who =
            a.bottleneckIp < 0
                ? "memory (Bpeak)"
                : soc.ip(static_cast<size_t>(a.bottleneckIp)).name;
        double demand =
            a.dramBytesPerFrame * entry.targetFps / 1e9;
        t.addRow({entry.graph.name(),
                  formatDouble(entry.targetFps, 0),
                  formatDouble(a.maxFps, 1),
                  a.maxFps >= entry.targetFps ? "yes" : "NO",
                  who, formatDouble(demand, 1)});
    }
    std::cout << t.render();
    std::cout << "the 4K240 HFR case demands more than the ~30 GB/s "
                 "the chip has -- the paper's Section II-B example\n";

    // Occupancy heatmap: how busy is each IP in each usecase when it
    // runs at its sustainable rate? (ipTime per frame x maxFps; 1.0
    // = the binding IP.)
    bench::banner("Table I (occupancy)",
                  "per-IP busy fraction at each usecase's max rate");
    std::vector<std::string> x_ticks;
    for (const std::string &ip : UsecaseCatalog::ipColumns())
        x_ticks.push_back(ip);
    std::vector<std::string> y_ticks;
    std::vector<std::vector<double>> grid;
    for (const UsecaseEntry &entry : UsecaseCatalog::extended()) {
        DataflowAnalysis a = entry.graph.analyze(soc);
        std::vector<double> row;
        for (double t_ip : a.ipTimes)
            row.push_back(t_ip * a.maxFps);
        y_ticks.push_back(entry.graph.name());
        grid.push_back(std::move(row));
    }
    HeatmapPlot map("IP occupancy across usecases", "IP",
                    "usecase");
    map.setGrid(x_ticks, y_ticks, grid);
    bench::writeFigure("table1_occupancy.svg", map.renderSvg(52.0));
    std::cout << map.renderAscii();
}

void
BM_AnalyzeAllUsecases(benchmark::State &state)
{
    SocSpec soc = SocCatalog::snapdragon835Full();
    auto all = UsecaseCatalog::all();
    for (auto _ : state) {
        for (const UsecaseEntry &entry : all)
            benchmark::DoNotOptimize(
                entry.graph.analyze(soc).maxFps);
    }
}
BENCHMARK(BM_AnalyzeAllUsecases);

} // namespace

int
main(int argc, char **argv)
{
    reproduceTableOne();
    reproduceFigure4();
    analyzeUsecases();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
