/**
 * @file
 * Ablation 1 (paper Section V-A): how much does a memory-side
 * SRAM/cache buy? Sweeps the miss ratio on the Figure 6b scenario
 * (memory-bound offload) and on the HFR capture usecase, and sizes
 * the SRAM via the fractional-fit model.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "core/memside.h"
#include "soc/catalog.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace gables;

void
reproduce()
{
    bench::banner("Ablation 1 (V-A)",
                  "memory-side memory vs miss ratio, Figure 6b case");
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);

    TextTable t({"miss ratio m", "Pattainable Gops/s", "bottleneck"});
    for (double m : {1.0, 0.75, 0.5, 0.25, 0.1, 0.0}) {
        MemSideMemory sram = MemSideMemory::uniform(2, m);
        GablesResult r = GablesModel::evaluate(soc, u, &sram);
        t.addRow({formatDouble(m, 2),
                  formatDouble(r.attainable / 1e9, 3),
                  r.bottleneckLabel(soc)});
    }
    std::cout << t.render();
    std::cout << "with enough reuse the bound shifts from the memory "
                 "interface to IP[1]'s link (2 Gops/s cap)\n";

    bench::banner("Ablation 1b",
                  "SRAM sizing via fractional fit (HFR TNR refs)");
    // A ten-IP usecase that spreads streaming work evenly: no single
    // link binds, so the summed demand makes the memory interface
    // the bottleneck — exactly where a memory-side SRAM helps. The
    // working set is the HFR case's five TNR reference frames.
    double working_set = 5.0 * 12.4e6;
    TextTable t2({"SRAM MiB", "miss ratio", "Pattainable Gops/s",
                  "bottleneck"});
    SocSpec full = SocCatalog::snapdragon835Full();
    Usecase spread("spread", [] {
        // Even streaming work over nine IPs (the wimpy scalar DSP
        // sits out so its compute roof does not mask the effect).
        std::vector<IpWork> w(kNumFullSocIps, IpWork{1.0 / 9.0, 1.0});
        w[kIpDsp] = IpWork{0.0, 1.0};
        return w;
    }());
    for (double mib : {0.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0}) {
        double miss = fractionalFitMissRatio(working_set,
                                             mib * kMiB);
        MemSideMemory sram = MemSideMemory::uniform(kNumFullSocIps, miss);
        GablesResult r = GablesModel::evaluate(full, spread, &sram);
        t2.addRow({formatDouble(mib, 0), formatDouble(miss, 3),
                   formatDouble(r.attainable / 1e9, 2),
                   r.bottleneckLabel(full)});
    }
    std::cout << t2.render();
    std::cout << "once enough of the reference set fits, the bound "
                 "crosses from the memory interface to an IP link: "
                 "more SRAM stops paying (the paper's conjecture 4 "
                 "pitfall)\n";
}

void
BM_MemSideEvaluate(benchmark::State &state)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    MemSideMemory ext = MemSideMemory::uniform(2, 0.5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            GablesModel::evaluate(soc, u, &ext).attainable);
    }
}
BENCHMARK(BM_MemSideEvaluate);

} // namespace

int
main(int argc, char **argv)
{
    reproduce();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
