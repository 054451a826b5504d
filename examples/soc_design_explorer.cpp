/**
 * @file
 * Early-stage design-space exploration: "which IPs should my SoC
 * include and roughly how big?" (paper Section I). Takes a must-run
 * usecase portfolio (the paper stresses every usecase must run
 * acceptably — the average is immaterial), enumerates candidate
 * designs over Bpeak and accelerator sizes, prints the Pareto
 * frontier under a simple cost model, and finishes with sensitivity
 * and optimal-work-split analyses of the chosen design.
 *
 * Run: build/examples/soc_design_explorer
 */

#include <iostream>

#include "analysis/explorer.h"
#include "analysis/optimal_split.h"
#include "analysis/sensitivity.h"
#include "soc/catalog.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

using namespace gables;

int
main()
{
    // Template: a three-IP SoC (CPU + candidate GPU + candidate DSP).
    SocSpec base("candidate", 7.5e9, 15e9,
                 {
                     IpSpec{"CPU", 1.0, 15e9},
                     IpSpec{"GPU", 20.0, 24e9},
                     IpSpec{"DSP", 4.0, 8e9},
                 });

    // The must-run portfolio: a compute-heavy vision usecase, a
    // streaming usecase with poor reuse, and a CPU-centric one.
    std::vector<Usecase> portfolio = {
        Usecase("vision", {IpWork{0.1, 8.0}, IpWork{0.8, 16.0},
                           IpWork{0.1, 4.0}}),
        Usecase("streaming", {IpWork{0.2, 2.0}, IpWork{0.3, 0.5},
                              IpWork{0.5, 1.0}}),
        Usecase("interactive", {IpWork{0.7, 4.0}, IpWork{0.2, 8.0},
                                IpWork{0.1, 2.0}}),
    };

    CostModel cost;
    cost.costPerAcceleration = 1.0;   // area-like
    cost.costPerBpeak = 0.5e-9;       // PHY/pins per GB/s
    cost.costPerIpBandwidth = 0.1e-9; // wires per GB/s

    DesignExplorer explorer(base, portfolio, cost);
    explorer.sweep(Param::bpeak(), {10e9, 15e9, 20e9, 30e9, 40e9});
    explorer.sweep(Param::acceleration(1), {10.0, 20.0, 40.0, 80.0});
    explorer.sweep(Param::acceleration(2), {2.0, 4.0, 8.0});

    auto frontier = explorer.exploreFrontier();

    std::cout << "explored " << explorer.gridSize()
              << " designs; Pareto frontier has " << frontier.size()
              << ":\n";
    TextTable t({"Bpeak GB/s", "A_GPU", "A_DSP", "worst-case Gops/s",
                 "cost"});
    for (const Candidate &c : frontier) {
        t.addRow({formatDouble(c.soc.bpeak() / 1e9, 0),
                  formatDouble(c.soc.ip(1).acceleration, 0),
                  formatDouble(c.soc.ip(2).acceleration, 0),
                  formatDouble(c.minPerf / 1e9, 2),
                  formatDouble(c.cost, 1)});
    }
    std::cout << t.render();

    // Pick the knee: the cheapest design within 5% of the best
    // worst-case performance.
    const Candidate *pick = &frontier.front();
    double best = frontier.back().minPerf;
    for (const Candidate &c : frontier) {
        if (c.minPerf >= 0.95 * best) {
            pick = &c;
            break;
        }
    }
    std::cout << "\nchosen design: Bpeak = "
              << formatByteRate(pick->soc.bpeak()) << ", A_GPU = "
              << pick->soc.ip(1).acceleration << ", A_DSP = "
              << pick->soc.ip(2).acceleration << '\n';

    // Which knob matters most for the weakest usecase?
    size_t weakest = 0;
    for (size_t i = 1; i < portfolio.size(); ++i) {
        if (pick->perUsecase[i] < pick->perUsecase[weakest])
            weakest = i;
    }
    std::cout << "weakest usecase: " << portfolio[weakest].name()
              << "; elasticities:\n";
    for (const SensitivityEntry &e :
         Sensitivity::analyze(pick->soc, portfolio[weakest])) {
        if (e.elasticity > 0.01)
            std::cout << "  " << e.parameter << " -> "
                      << formatDouble(e.elasticity, 3) << '\n';
    }

    // If the software team could re-split the vision workload
    // freely, what is the ceiling?
    OptimalSplit split =
        OptimalSplitSolver(pick->soc, {8.0, 16.0, 4.0}).solve();
    std::cout << "\noptimal vision split: f = {";
    for (size_t i = 0; i < split.fractions.size(); ++i)
        std::cout << (i ? ", " : "")
                  << formatDouble(split.fractions[i], 3);
    std::cout << "} -> " << formatOpsRate(split.attainable) << '\n';
    return 0;
}
