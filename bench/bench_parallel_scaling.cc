/**
 * @file
 * Scaling study of the parallel evaluation engine on the explorer
 * grid: the same three-knob cross product of Snapdragon-835-like
 * designs is evaluated whole (the unpruned frontier) with 1, 2, 4,
 * and 8 pool workers, verifying that the frontiers agree member by
 * member and reporting the speedup curve. Near-linear scaling is
 * expected up to the machine's core count (the grid is embarrassingly
 * parallel); on fewer cores the curve flattens at the hardware limit.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <vector>

#include "analysis/explorer.h"
#include "analysis/sweep.h"
#include "bench_util.h"
#include "parallel/parallel_for.h"
#include "soc/catalog.h"
#include "soc/usecases.h"
#include "util/table.h"

namespace {

using namespace gables;

/** The shared study grid: Bpeak x GPU acceleration x GPU link. */
DesignExplorer
makeExplorer(int points_per_knob)
{
    SocSpec base = SocCatalog::snapdragon835Full();
    std::vector<Usecase> portfolio;
    for (const UsecaseEntry &entry : UsecaseCatalog::extended())
        portfolio.push_back(entry.graph.toUsecase(base));

    CostModel cost;
    cost.costPerAcceleration = 1.0;
    cost.costPerBpeak = 0.5e-9;
    cost.costPerIpBandwidth = 0.1e-9;
    DesignExplorer explorer(base, portfolio, cost);

    std::vector<double> bpeaks, accels, links;
    for (int i = 0; i < points_per_knob; ++i) {
        bpeaks.push_back(10e9 + i * 5e9);
        accels.push_back(2.0 + i * 2.0);
        links.push_back(8e9 + i * 4e9);
    }
    const size_t gpu = 3; // snapdragon835Full: AP, Display, G2DS, GPU
    explorer.sweep(Param::bpeak(), bpeaks);
    explorer.sweep(Param::acceleration(gpu), accels);
    explorer.sweep(Param::ipBandwidth(gpu), links);
    return explorer;
}

/** The unpruned frontier with @p jobs workers: every design of the
 * grid is evaluated. */
std::vector<Candidate>
frontierOf(const DesignExplorer &explorer, int jobs)
{
    ExploreOptions opts;
    opts.jobs = jobs;
    opts.prune = false;
    return explorer.exploreFrontier(opts);
}

double
timeExplore(const DesignExplorer &explorer, int jobs,
            std::vector<Candidate> &out)
{
    auto start = std::chrono::steady_clock::now();
    out = frontierOf(explorer, jobs);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
reproduce()
{
    bench::banner("Parallel scaling",
                  "explorer grid speedup vs pool workers");
    DesignExplorer explorer = makeExplorer(12);
    std::cout << "grid: " << explorer.gridSize()
              << " candidate designs x "
              << UsecaseCatalog::extended().size()
              << " usecases; hardware threads: "
              << parallel::defaultJobs() << "\n";

    std::vector<Candidate> serial;
    double t1 = timeExplore(explorer, 1, serial);

    TextTable t({"jobs", "time (ms)", "speedup", "identical"});
    t.addRow({"1", formatDouble(t1 * 1e3, 1), "1.00", "-"});
    for (int jobs : {2, 4, 8}) {
        std::vector<Candidate> result;
        double tj = timeExplore(explorer, jobs, result);

        bool identical = result.size() == serial.size();
        for (size_t i = 0; identical && i < result.size(); ++i) {
            identical = result[i].minPerf == serial[i].minPerf &&
                        result[i].cost == serial[i].cost &&
                        result[i].perUsecase == serial[i].perUsecase;
        }
        t.addRow({std::to_string(jobs), formatDouble(tj * 1e3, 1),
                  formatDouble(t1 / tj, 2),
                  identical ? "yes" : "NO"});
        if (!identical) {
            std::cout << "ERROR: jobs=" << jobs
                      << " diverged from the serial grid\n";
            std::exit(1);
        }
    }
    std::cout << t.render()
              << "(speedup saturates at the machine's core count; "
                 "expect ~linear up to 8 on 8+ cores)\n";
}

void
BM_ExplorerGrid(benchmark::State &state)
{
    DesignExplorer explorer = makeExplorer(8);
    int jobs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(frontierOf(explorer, jobs).size());
    }
    state.counters["designs/s"] = benchmark::Counter(
        static_cast<double>(explorer.gridSize() *
                            state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExplorerGrid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_MixingSweep(benchmark::State &state)
{
    SocSpec soc = SocCatalog::snapdragon835Full();
    int jobs = static_cast<int>(state.range(0));
    std::vector<double> fractions;
    for (int i = 0; i < 20000; ++i)
        fractions.push_back(i / 19999.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            Sweep::mixing(soc, 8.0, 0.5, fractions, true, jobs)
                .y.size());
    }
}
BENCHMARK(BM_MixingSweep)->Arg(1)->Arg(8)->Unit(
    benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    reproduce();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
