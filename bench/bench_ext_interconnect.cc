/**
 * @file
 * Ablation 2 (paper Section V-B): interconnect topology. Compares a
 * single wide fabric against the Figure 3 hierarchy where the DSP
 * sits on a slow system fabric — explaining its measured 5.4 GB/s —
 * and shows when a shared bus becomes the usecase bottleneck.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "core/interconnect.h"
#include "soc/catalog.h"
#include "util/table.h"

namespace {

using namespace gables;

void
reproduce()
{
    bench::banner("Ablation 2 (V-B)",
                  "interconnect topologies on a CPU+GPU+DSP usecase");
    SocSpec soc = SocCatalog::snapdragon835();
    // A usecase that loads all three IPs with streaming work.
    Usecase u("stream", {IpWork{0.2, 1.0}, IpWork{0.6, 2.0},
                         IpWork{0.2, 0.5}});

    double base = GablesModel::evaluate(soc, u).attainable;

    // Topology A: one wide fabric (effectively the base model).
    InterconnectModel wide({BusSpec{"wide fabric", 128e9}},
                           {{true}, {true}, {true}});
    // Topology B: Figure 3 hierarchy (DSP on the 12.5 GB/s system
    // fabric).
    InterconnectModel hier = InterconnectModel::hierarchy(
        {"hb fabric", "system fabric"}, {128e9, 12.5e9}, {0, 0, 1},
        0.0);
    // Topology C: everything crammed onto one narrow bus.
    InterconnectModel narrow({BusSpec{"narrow bus", 5e9}},
                             {{true}, {true}, {true}});

    TextTable t({"topology", "Pattainable Gops/s", "bus bottleneck"});
    auto row = [&](const char *name, const InterconnectModel &model) {
        GablesResult r = GablesModel::evaluate(soc, u, nullptr, &model);
        t.addRow({name,
                  formatDouble(r.attainable / 1e9, 3),
                  r.bottleneckBus < 0
                      ? "-"
                      : model.buses()[static_cast<size_t>(
                                          r.bottleneckBus)]
                            .name});
    };
    t.addRow({"base model (no buses)", formatDouble(base / 1e9, 3),
              "-"});
    row("one wide fabric", wide);
    row("Figure 3 hierarchy", hier);
    row("one narrow 5 GB/s bus", narrow);
    std::cout << t.render();
    std::cout << "a sufficiently wide interconnect reduces to the "
                 "base model; a shared narrow bus becomes the "
                 "bottleneck (Eq. 17)\n";
}

void
BM_InterconnectEvaluate(benchmark::State &state)
{
    SocSpec soc = SocCatalog::snapdragon835();
    Usecase u("stream", {IpWork{0.2, 1.0}, IpWork{0.6, 2.0},
                         IpWork{0.2, 0.5}});
    InterconnectModel hier = InterconnectModel::hierarchy(
        {"hb", "sys"}, {128e9, 12.5e9}, {0, 0, 1}, 0.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            GablesModel::evaluate(soc, u, nullptr, &hier).attainable);
    }
}
BENCHMARK(BM_InterconnectEvaluate);

} // namespace

int
main(int argc, char **argv)
{
    reproduce();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
