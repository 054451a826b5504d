/**
 * @file
 * Regenerates Figure 6a-6d (and the appendix's exact numbers): the
 * two-IP Gables walkthrough. Prints the appendix table paper-vs-
 * computed, renders the four scaled-roofline plots as SVG files,
 * then times model evaluation with google-benchmark.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "core/gables.h"
#include "plot/roofline_plot.h"
#include "soc/catalog.h"
#include "util/units.h"

namespace {

using namespace gables;

struct Scenario {
    const char *name;
    SocSpec soc;
    Usecase usecase;
    double paperGops;
};

std::vector<Scenario>
scenarios()
{
    SocSpec base = SocCatalog::paperTwoIp();
    return {
        {"Fig 6a (f=0)", base, Usecase::twoIp("6a", 0.0, 8.0, 0.1),
         40.0},
        {"Fig 6b (f=0.75)", base,
         Usecase::twoIp("6b", 0.75, 8.0, 0.1), 1.3},
        {"Fig 6c (Bpeak=30)", base.with(Param::bpeak(), 30e9),
         Usecase::twoIp("6c", 0.75, 8.0, 0.1), 2.0},
        {"Fig 6d (balanced)", base.with(Param::bpeak(), 20e9),
         Usecase::twoIp("6d", 0.75, 8.0, 8.0), 160.0},
    };
}

void
reproduce()
{
    bench::banner("Figure 6 / Appendix",
                  "two-IP Gables walkthrough, Pattainable in Gops/s");
    bench::ComparisonTable table;
    for (const Scenario &s : scenarios()) {
        GablesResult r = GablesModel::evaluate(s.soc, s.usecase);
        table.add(s.name, s.paperGops, r.attainable / 1e9, "Gops/s",
                  4);
    }
    table.print();

    std::cout << "\nper-scenario bottlenecks:\n";
    for (const Scenario &s : scenarios()) {
        GablesResult r = GablesModel::evaluate(s.soc, s.usecase);
        std::cout << "  " << s.name << ": "
                  << r.bottleneckLabel(s.soc)
                  << " (Iavg=" << r.averageIntensity << ")\n";
    }

    for (const Scenario &s : scenarios()) {
        RooflinePlot plot(std::string(s.name) + " scaled rooflines",
                          0.01, 100.0);
        plot.addGables(s.soc, s.usecase);
        std::string id = std::string(s.name).substr(4, 2);
        bench::writeFigure("fig6_" + id + ".svg", plot.renderSvg());
    }
}

void
BM_GablesEvaluateTwoIp(benchmark::State &state)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("bench", 0.75, 8.0, 0.1);
    for (auto _ : state) {
        GablesResult r = GablesModel::evaluate(soc, u);
        benchmark::DoNotOptimize(r.attainable);
    }
}
BENCHMARK(BM_GablesEvaluateTwoIp);

void
BM_GablesPerfFormTwoIp(benchmark::State &state)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("bench", 0.75, 8.0, 0.1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            GablesModel::attainablePerfForm(soc, u));
    }
}
BENCHMARK(BM_GablesPerfFormTwoIp);

} // namespace

int
main(int argc, char **argv)
{
    reproduce();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
