/**
 * @file
 * Camera pipeline analysis: the paper's motivating scenario. Builds
 * the 4K240 high-frame-rate capture dataflow (Section II-B), shows
 * it blowing the DRAM budget of a Snapdragon-835-class SoC, and
 * walks through the design levers an SoC architect has: more DRAM
 * bandwidth, or a memory-side SRAM absorbing the TNR reference
 * traffic (extension V-A).
 *
 * Run: build/examples/camera_pipeline
 */

#include <iostream>

#include "core/memside.h"
#include "soc/catalog.h"
#include "soc/usecases.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

using namespace gables;

namespace {

void
report(const char *label, const UsecaseEntry &entry, double max_fps)
{
    std::cout << "  " << label << ": max "
              << formatDouble(max_fps, 1) << " fps vs target "
              << formatDouble(entry.targetFps, 0) << " -> "
              << (max_fps >= entry.targetFps ? "OK" : "MISSES")
              << '\n';
}

} // namespace

int
main()
{
    SocSpec soc = SocCatalog::snapdragon835Full();
    UsecaseEntry hfr = UsecaseCatalog::videocaptureHfr();

    std::cout << "usecase: " << hfr.graph.name() << " ("
              << formatDouble(hfr.targetFps, 0) << " fps target)\n";

    // Per-frame traffic budget.
    TextTable t({"buffer", "producer", "consumer", "MB/frame"});
    for (const DataflowBuffer &b : hfr.graph.buffers()) {
        t.addRow({b.label, b.producer.empty() ? "(sensor)" : b.producer,
                  b.consumer.empty() ? "(ext)" : b.consumer,
                  formatDouble(b.bytesPerFrame / 1e6, 2)});
    }
    std::cout << t.render();

    DataflowAnalysis base = hfr.graph.analyze(soc);
    std::cout << "\nDRAM demand at target: "
              << formatByteRate(base.dramBytesPerFrame *
                                hfr.targetFps)
              << " vs Bpeak " << formatByteRate(soc.bpeak()) << '\n';
    report("stock SoC", hfr, base.maxFps);

    // Lever 1: widen DRAM. How much would 240 fps need?
    double needed = base.dramBytesPerFrame * hfr.targetFps;
    SocSpec wide = soc.with(Param::bpeak(), needed);
    report("Bpeak -> 61.5 GB/s", hfr, hfr.graph.analyze(wide).maxFps);

    // Lever 2: a memory-side SRAM holding the TNR reference frames.
    // The ISP's reference traffic (5 frames, ~62 MB) gets reuse; the
    // Gables miss-ratio view of that is mi << 1 for the ISP.
    Usecase lowered = hfr.graph.toUsecase(soc);
    std::vector<double> miss(soc.numIps(), 1.0);
    miss[soc.ipIndex("ISP")] =
        fractionalFitMissRatio(5.0 * UsecaseCatalog::k4kYuvBytes,
                               32.0 * kMiB);
    MemSideMemory sram(miss);
    GablesResult with_sram = GablesModel::evaluate(soc, lowered, &sram);
    GablesResult without =
        GablesModel::evaluate(soc, lowered);
    std::cout << "\nGables view (per-op bound, unit-normalized):\n"
              << "  without SRAM: "
              << formatOpsRate(without.attainable) << " ("
              << without.bottleneckLabel(soc) << ")\n"
              << "  with 32 MiB memory-side SRAM for the ISP: "
              << formatOpsRate(with_sram.attainable) << " ("
              << with_sram.bottleneckLabel(soc) << ")\n";

    std::cout << "\nlesson (paper Section II-B): at 4K240 the "
                 "reference-frame traffic, not any single IP, is the "
                 "wall; buy reuse before bandwidth.\n";
    return 0;
}
