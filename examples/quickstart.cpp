/**
 * @file
 * Quickstart: the paper's Figure 6 walkthrough in ~60 lines of
 * library code. Build a two-IP SoC, assign work, read off the
 * attainable bound and the bottleneck, then fix the design the way
 * Section III-C does.
 *
 * Run: build/examples/quickstart
 */

#include <iostream>

#include "analysis/balance.h"
#include "core/gables.h"
#include "plot/roofline_plot.h"
#include "util/units.h"

using namespace gables;

int
main()
{
    // Hardware: Ppeak = 40 Gops/s CPU, a 5x accelerator (GPU),
    // 10 GB/s of off-chip DRAM bandwidth, and per-IP links of 6 and
    // 15 GB/s (paper Figure 6a).
    SocSpec soc("my first SoC", 40e9, 10e9,
                {
                    IpSpec{"CPU", 1.0, 6e9},
                    IpSpec{"GPU", 5.0, 15e9},
                });

    // Software: all work on the CPU at 8 ops/byte.
    Usecase cpu_only = Usecase::twoIp("cpu-only", 0.0, 8.0, 0.1);
    GablesResult r = GablesModel::evaluate(soc, cpu_only);
    std::cout << "all work on the CPU:   "
              << formatOpsRate(r.attainable) << "  (bound: "
              << r.bottleneckLabel(soc) << ")\n";

    // Offload 75% to the GPU - but the GPU work has terrible data
    // reuse (0.1 ops/byte). Performance collapses (Figure 6b).
    Usecase offload = Usecase::twoIp("offload", 0.75, 8.0, 0.1);
    r = GablesModel::evaluate(soc, offload);
    std::cout << "naive offload:         "
              << formatOpsRate(r.attainable) << "  (bound: "
              << r.bottleneckLabel(soc) << ")\n";

    // Throwing DRAM bandwidth at it barely helps (Figure 6c).
    r = GablesModel::evaluate(soc.with(Param::bpeak(), 30e9), offload);
    std::cout << "with 30 GB/s DRAM:     "
              << formatOpsRate(r.attainable) << "  (bound: "
              << r.bottleneckLabel(soc) << ")\n";

    // The real fix: give the GPU reuse (I1 = 8) and then size the
    // DRAM bandwidth to exactly what the usecase needs (Figure 6d).
    Usecase reuse = Usecase::twoIp("reuse", 0.75, 8.0, 8.0);
    double sufficient = Balance::sufficientBpeak(
        soc.with(Param::bpeak(), 30e9), reuse);
    SocSpec balanced = soc.with(Param::bpeak(), sufficient);
    r = GablesModel::evaluate(balanced, reuse);
    std::cout << "balanced design:       "
              << formatOpsRate(r.attainable) << "  with Bpeak = "
              << formatByteRate(sufficient) << '\n';

    // All three rooflines now meet at I = 8: zero slack.
    BalanceReport report = Balance::report(balanced, reuse);
    std::cout << "max slack:             " << report.maxSlack * 100.0
              << "%\n";

    // And the picture, straight to the terminal.
    RooflinePlot plot("balanced two-IP SoC", 0.01, 100.0);
    plot.addGables(balanced, reuse);
    std::cout << '\n' << plot.renderAscii();
    return 0;
}
