/**
 * @file
 * An SoC architect's day with Gables: take one candidate design and
 * one future usecase estimate, and answer the questions that come up
 * in an early-stage design review, end to end:
 *
 *   1. where does the usecase bottleneck?            (evaluate)
 *   2. which single move buys the most?              (advisor)
 *   3. how sure are we, given fuzzy estimates?       (robustness)
 *   4. what does it cost in watts — and what does a
 *      3 W phone budget leave on the table?          (energy)
 *   5. does a dynamic pipeline confirm the bound?    (pipeline sim)
 *
 * Run: build/examples/architects_day
 */

#include <iostream>

#include "analysis/advisor.h"
#include "analysis/robustness.h"
#include "core/energy.h"
#include "core/gables.h"
#include "soc/catalog.h"
#include "soc/pipeline.h"
#include "soc/usecases.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

using namespace gables;

int
main()
{
    SocSpec soc = SocCatalog::snapdragon835Full();
    UsecaseEntry ar = UsecaseCatalog::arNavigation();
    Usecase usecase = ar.graph.toUsecase(soc);

    // 1. Where does it bottleneck?
    GablesResult base = GablesModel::evaluate(soc, usecase);
    std::cout << "1. " << ar.graph.name() << " on " << soc.name()
              << ": " << formatOpsRate(base.attainable)
              << ", bound by " << base.bottleneckLabel(soc) << '\n';
    DataflowAnalysis analysis = ar.graph.analyze(soc);
    std::cout << "   frame-rate view: "
              << formatDouble(analysis.maxFps, 1) << " fps vs the "
              << formatDouble(ar.targetFps, 0) << " fps target\n\n";

    // 2. Which single move buys the most?
    std::cout << "2. top design moves:\n";
    auto advice = Advisor::advise(soc, usecase);
    int shown = 0;
    for (const Advice &a : advice) {
        if (a.kind == AdviceKind::ShrinkSlack || shown == 3)
            continue;
        std::cout << "   " << formatDouble(a.gain, 2) << "x  "
                  << a.description << '\n';
        ++shown;
    }
    std::cout << '\n';

    // 3. How sure are we? The fi/Ii numbers are estimates for a
    //    chip that ships in three years.
    Robustness::Options opts;
    opts.samples = 2000;
    opts.target = base.attainable * 0.8;
    RobustnessReport rob = Robustness::analyze(soc, usecase, opts);
    std::cout << "3. under 2x intensity / 1.5x fraction jitter:\n"
              << "   p5 " << formatOpsRate(rob.p5) << ", median "
              << formatOpsRate(rob.p50) << ", p95 "
              << formatOpsRate(rob.p95) << '\n'
              << "   P(>= 80% of nominal) = "
              << formatDouble(rob.meetsTargetProbability * 100.0, 1)
              << "%\n   bottleneck shares:";
    for (const auto &[ip, share] : rob.bottleneckShare) {
        std::cout << ' '
                  << (ip < 0 ? "memory" : soc.ipLabel(static_cast<size_t>(ip)))
                  << "=" << formatDouble(share * 100.0, 0) << "%";
    }
    std::cout << "\n\n";

    // 4. The watts. Mobile coefficients: AP 100 pJ/op, fixed-
    //    function blocks 5-20 pJ/op, LPDDR 25 pJ/B, 0.4 W static.
    std::vector<double> e_per_op(soc.numIps(), 15e-12);
    e_per_op[kIpAp] = 100e-12;
    e_per_op[kIpGpu] = 20e-12;
    e_per_op[kIpDsp] = 8e-12;
    e_per_op[kIpIpu] = 5e-12;
    EnergyModel energy(e_per_op, 25e-12, 0.4);
    EnergyResult er = energy.evaluate(soc, usecase, 3.0);
    std::cout << "4. at the 3 W budget: "
              << formatOpsRate(er.constrained)
              << (er.thermallyLimited ? " (thermally limited)"
                                      : " (roofline limited)")
              << ", drawing " << formatDouble(er.power, 2) << " W, "
              << formatDouble(er.energyPerOp * 1e12, 1)
              << " pJ/op\n\n";

    // 5. Confirm with the dynamic pipeline.
    sim::PipelineSim pipeline(soc, ar.graph);
    sim::PipelineStats stats = pipeline.run(96);
    std::cout << "5. event-driven pipeline: "
              << formatDouble(stats.steadyFps, 1)
              << " fps steady state ("
              << formatDouble(stats.steadyFps / analysis.maxFps *
                                  100.0,
                              0)
              << "% of the analytic bound — the model is a sound "
                 "upper bound)\n";
    return 0;
}
