/**
 * @file
 * Empirical roofline measurement (paper Section IV): run the
 * Algorithm-1 micro-benchmark on every engine of the simulated
 * Snapdragon 835, fit pessimistic rooflines, write the Figure 7/9
 * style SVG charts, and finish with the working-set sweep that
 * exposes the CPU's cache tiers (the paper's note that smaller
 * arrays see higher bandwidth).
 *
 * Run: build/examples/empirical_roofline
 */

#include <iostream>

#include "ert/ert.h"
#include "ert/fitter.h"
#include "plot/roofline_plot.h"
#include "soc/catalog.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

using namespace gables;

int
main()
try {
    ErtConfig config;
    config.intensities = ErtConfig::defaultIntensities();
    config.workingSetBytes = 64e6; // defeat the local memories
    config.totalBytes = 128e6;

    RooflinePlot all("Snapdragon 835 (sim): all engines", 0.015,
                     128.0);
    TextTable t({"engine", "peak Gops/s", "DRAM GB/s",
                 "ridge ops/B", "fit residual"});
    for (const char *engine : {"CPU", "GPU", "DSP"}) {
        auto samples =
            ErtSweep::run(SocCatalog::snapdragon835Sim, engine, config);
        RooflineFit fit = RooflineFitter::fitDram(samples);
        t.addRow({engine, formatDouble(fit.peakOps / 1e9, 2),
                  formatDouble(fit.peakBw / 1e9, 2),
                  formatDouble(fit.ridge, 3),
                  formatDouble(fit.maxRelResidual, 4)});
        all.addRoofline(fit.roofline(engine));
    }
    std::cout << t.render();

    writeFileAtomic("soc_rooflines.svg", all.renderSvg());
    std::cout << "wrote soc_rooflines.svg\n\n"
              << all.renderAscii() << '\n';

    // Cache tiers: the same streaming kernel at shrinking working
    // sets. Paper: "the CPU can obtain higher bandwidth from its
    // internal L1 and L2 caches by using smaller array sizes."
    std::cout << "CPU bandwidth vs working-set size (I = 0.01):\n";
    auto soc = SocCatalog::snapdragon835Sim();
    TextTable ws({"working set", "GB/s", "served by"});
    for (double set : {256.0 * 1024, 1.0 * kMiB, 2.0 * kMiB,
                       8.0 * kMiB, 64.0 * kMiB}) {
        auto samples = ErtSweep::workingSetSweep(*soc, "CPU", {set},
                                                 0.01, 64e6);
        const ErtSample &s = samples.front();
        ws.addRow({formatBytes(set, 3),
                   formatDouble(s.byteRate / 1e9, 2),
                   s.missByteRate < s.byteRate * 0.5 ? "L2"
                                                     : "DRAM path"});
    }
    std::cout << ws.render();
    return 0;
} catch (const FatalError &err) {
    std::cerr << "error: " << err.what() << '\n';
    return 1;
}
