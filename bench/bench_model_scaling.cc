/**
 * @file
 * Ablation 4: cost of the model itself. The paper pitches Gables as
 * an early-stage tool usable interactively and inside optimizers;
 * these google-benchmark timings show evaluation scales linearly in
 * N and stays in the nanosecond-to-microsecond regime even for
 * 1024-IP chips, and that the design-space explorer and optimal-
 * split solver are interactive-speed.
 *
 * With --json PATH the binary switches to a manual best-of-N harness
 * over the analytic hot-path workloads and writes
 * BENCH_model_eval.json for the perf-regression trajectory:
 *
 *  - evaluate_8ip: mutate-one-parameter + run() on a compiled 8-IP
 *    single-point pack — the steady-state advisor-probe shape.
 *  - mixing_4096_w8 / mixing_4096_w1: the 4096-point mixing grid
 *    (paper Figure 8 shape) staged straight into a kGridWidth pack
 *    and into a single-point pack, in interleaved reps, so the
 *    "mixing_4096_w8_vs_w1" speedup is a same-run,
 *    machine-independent measure of the lane width.
 *  - explorer_grid / explorer_grid_pruned: the 64x64 explorer cross
 *    product through exploreFrontier(), without and with subgrid
 *    bound pruning.
 *  - explorer_grid_reference: the same grid evaluated the pre-
 *    evaluator way (SocSpec rebuild + GablesModel::evaluate per
 *    design) — the denominator of the reported speedups, measured in
 *    the same run so the ratio cancels machine speed.
 *
 * CI compares the committed baseline with a generous tolerance and
 * asserts the evaluator speedup stays above its floor. Run with
 * --reps N to scale measurement time.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/explorer.h"
#include "analysis/optimal_split.h"
#include "analysis/sensitivity.h"
#include "bench_util.h"
#include "core/evaluator.h"
#include "core/gables.h"
#include "util/atomic_file.h"
#include "util/json_writer.h"
#include "util/parse.h"
#include "util/rng.h"

namespace {

using namespace gables;
using Clock = std::chrono::steady_clock;

/** Build a synthetic N-IP SoC and matching usecase. */
std::pair<SocSpec, Usecase>
synthetic(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<IpSpec> ips;
    for (size_t i = 0; i < n; ++i) {
        ips.push_back(IpSpec{"IP" + std::to_string(i),
                             i == 0 ? 1.0 : rng.logUniform(0.5, 50.0),
                             rng.logUniform(2e9, 50e9)});
    }
    SocSpec soc("synthetic", 10e9, 30e9, std::move(ips));
    std::vector<double> f = rng.simplex(n);
    std::vector<IpWork> work(n);
    for (size_t i = 0; i < n; ++i)
        work[i] = IpWork{f[i], rng.logUniform(0.1, 64.0)};
    return {soc, Usecase("synthetic", std::move(work))};
}

void
BM_EvaluateNIp(benchmark::State &state)
{
    auto [soc, u] = synthetic(static_cast<size_t>(state.range(0)), 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            GablesModel::evaluate(soc, u).attainable);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvaluateNIp)->RangeMultiplier(4)->Range(2, 1024)
    ->Complexity(benchmark::oN);

void
BM_CompiledEvaluatorNIp(benchmark::State &state)
{
    auto [soc, u] = synthetic(static_cast<size_t>(state.range(0)), 7);
    GablesPack<1> ev(soc, u);
    double vals[4] = {0.5, 2.0, 8.0, 32.0};
    size_t i = 0;
    for (auto _ : state) {
        ev.setIntensity(0, 1, vals[i++ & 3]);
        ev.run();
        benchmark::DoNotOptimize(ev.attainable(0));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompiledEvaluatorNIp)->RangeMultiplier(4)->Range(2, 1024)
    ->Complexity(benchmark::oN);

void
BM_PerfFormNIp(benchmark::State &state)
{
    auto [soc, u] = synthetic(static_cast<size_t>(state.range(0)), 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            GablesModel::attainablePerfForm(soc, u));
    }
}
BENCHMARK(BM_PerfFormNIp)->Range(2, 1024);

void
BM_OptimalSplitNIp(benchmark::State &state)
{
    size_t n = static_cast<size_t>(state.range(0));
    auto [soc, u] = synthetic(n, 11);
    Rng rng(13);
    std::vector<double> intensities;
    for (size_t i = 0; i < n; ++i)
        intensities.push_back(rng.logUniform(0.1, 64.0));
    OptimalSplitSolver solver(soc, intensities);
    for (auto _ : state) {
        benchmark::DoNotOptimize(solver.solve().attainable);
    }
}
BENCHMARK(BM_OptimalSplitNIp)->Range(2, 256);

void
BM_SensitivityNIp(benchmark::State &state)
{
    auto [soc, u] = synthetic(static_cast<size_t>(state.range(0)),
                              17);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            Sensitivity::analyze(soc, u).size());
    }
}
BENCHMARK(BM_SensitivityNIp)->Range(2, 64);

void
BM_Explorer1kDesigns(benchmark::State &state)
{
    auto [soc, u] = synthetic(3, 23);
    CostModel cost;
    cost.costPerBpeak = 1e-9;
    DesignExplorer ex(soc, {u}, cost);
    std::vector<double> bpeaks, accels;
    for (int i = 0; i < 32; ++i)
        bpeaks.push_back((i + 1) * 2e9);
    for (int i = 0; i < 32; ++i)
        accels.push_back(1.0 + i);
    ex.sweepBpeak(bpeaks);
    ex.sweepAcceleration(1, accels);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ex.explore().size()); // 1024 designs
    }
}
BENCHMARK(BM_Explorer1kDesigns)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------
// Manual best-of-N harness (--json mode).
// ---------------------------------------------------------------

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Measurement {
    double itemsPerSec = 0.0;
    double nsPerItem = 0.0;
    uint64_t items = 0;
    double seconds = 0.0; // wall time of the best (fastest) rep
};

/**
 * Each rep is timed on its own and the fastest rep is reported: the
 * minimum is the measurement least disturbed by scheduler and
 * frequency noise, which keeps the committed baseline stable for the
 * CI regression gate.
 */
class BestOf
{
  public:
    void sample(double seconds, uint64_t items)
    {
        double rate = static_cast<double>(items) / seconds;
        if (rate <= best_.itemsPerSec)
            return;
        best_.itemsPerSec = rate;
        best_.nsPerItem = 1e9 * seconds / static_cast<double>(items);
        best_.items = items;
        best_.seconds = seconds;
    }

    const Measurement &result() const { return best_; }

  private:
    Measurement best_;
};

/** Single-parameter mutation + run() on a compiled 8-IP single-point
 * pack: the steady-state shape of every advisor probe. */
Measurement
measureEvaluate8Ip(int reps)
{
    auto [soc, u] = synthetic(8, 7);
    GablesPack<1> ev(soc, u);
    const uint64_t kEvals = 200000;
    double vals[4] = {0.5, 2.0, 8.0, 32.0};
    BestOf best;
    for (int r = 0; r < reps; ++r) {
        double acc = 0.0;
        Clock::time_point t0 = Clock::now();
        for (uint64_t i = 0; i < kEvals; ++i) {
            ev.setIntensity(0, 3, vals[i & 3]);
            ev.run();
            acc += ev.attainable(0);
        }
        double seconds = secondsSince(t0);
        benchmark::DoNotOptimize(acc);
        best.sample(seconds, kEvals);
    }
    return best.result();
}

/** The mixing grid through a pack of width W: stage W fractions per
 * pass, run, read the lanes — the staging Sweep::mixing performs,
 * without the driver around it. */
template <size_t W>
double
mixingGrid(GablesPack<W> &pack, const std::vector<double> &fractions)
{
    double acc = 0.0;
    for (size_t p0 = 0; p0 < fractions.size(); p0 += W) {
        const size_t cnt = std::min(W, fractions.size() - p0);
        double f0[W] = {};
        for (size_t w = 0; w < cnt; ++w)
            f0[w] = 1.0 - fractions[p0 + w];
        pack.setFractionRow(0, f0, cnt);
        pack.setFractionRow(1, fractions.data() + p0, cnt);
        pack.run(cnt);
        for (size_t w = 0; w < cnt; ++w)
            acc += pack.attainable(w);
    }
    return acc;
}

/**
 * The 4096-point mixing grid through a kGridWidth pack and a
 * single-point pack in alternating reps. Interleaving matters: the
 * width ratio gates CI, and pairing the reps inside one window keeps
 * scheduler/frequency drift from landing on only one side of it.
 */
void
measureMixingWidths(int reps, Measurement &wide, Measurement &single)
{
    auto [soc, u] = synthetic(4, 31);
    const size_t kPoints = 4096;
    std::vector<double> fractions;
    fractions.reserve(kPoints);
    for (size_t i = 0; i < kPoints; ++i)
        fractions.push_back(static_cast<double>(i) / (kPoints - 1));
    // The Sweep::mixing seed: all work on IP[0] and IP[1].
    std::vector<IpWork> work(soc.numIps(), IpWork{0.0, 1.0});
    work[0] = IpWork{1.0, 8.0};
    work[1] = IpWork{0.0, 0.1};
    Usecase seed("mixing", std::move(work));
    GablesPack<kGridWidth> pack_wide(soc, seed);
    GablesPack<1> pack_single(soc, seed);
    auto one = [&](auto &pack, BestOf &best) {
        Clock::time_point t0 = Clock::now();
        double acc = mixingGrid(pack, fractions);
        double seconds = secondsSince(t0);
        benchmark::DoNotOptimize(acc);
        best.sample(seconds, kPoints);
    };
    BestOf best_wide, best_single;
    for (int r = 0; r < reps; ++r) {
        one(pack_wide, best_wide);
        one(pack_single, best_single);
    }
    wide = best_wide.result();
    single = best_single.result();
}

/** The 64x64 explorer grid shared by the explorer workloads. */
DesignExplorer
makeGridExplorer(std::vector<double> &bpeaks,
                 std::vector<double> &accels)
{
    auto [soc, u] = synthetic(3, 23);
    CostModel cost;
    cost.costPerAcceleration = 1.0;
    cost.costPerBpeak = 1e-9;
    DesignExplorer ex(soc, {u}, cost);
    bpeaks.clear();
    accels.clear();
    for (int i = 0; i < 64; ++i)
        bpeaks.push_back((i + 1) * 1e9);
    for (int i = 0; i < 64; ++i)
        accels.push_back(1.0 + i);
    ex.sweepBpeak(bpeaks);
    ex.sweepAcceleration(1, accels);
    return ex;
}

/** The explorer cross product through the packed grid, with or
 * without subgrid bound pruning. The rate is grid designs per second
 * of wall time, so pruning shows up as a higher rate. */
Measurement
measureExplorerGrid(bool prune, int reps)
{
    std::vector<double> bpeaks, accels;
    DesignExplorer ex = makeGridExplorer(bpeaks, accels);
    ExploreOptions opts;
    opts.jobs = 1;
    opts.prune = prune;
    const uint64_t designs =
        static_cast<uint64_t>(bpeaks.size() * accels.size());
    BestOf best;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        auto frontier = ex.exploreFrontier(opts);
        double seconds = secondsSince(t0);
        benchmark::DoNotOptimize(frontier.size());
        best.sample(seconds, designs);
    }
    return best.result();
}

/**
 * The same grid evaluated the way the explorer worked before the
 * compiled-evaluator engine: one SocSpec rebuild per knob per design
 * and a full validating GablesModel::evaluate() per usecase. Kept as
 * an in-run reference so the speedup ratio is machine-independent.
 */
Measurement
measureExplorerReference(int reps)
{
    auto [soc, u] = synthetic(3, 23);
    std::vector<double> bpeaks, accels;
    for (int i = 0; i < 64; ++i)
        bpeaks.push_back((i + 1) * 1e9);
    for (int i = 0; i < 64; ++i)
        accels.push_back(1.0 + i);
    const uint64_t designs =
        static_cast<uint64_t>(bpeaks.size() * accels.size());
    BestOf best;
    for (int r = 0; r < reps; ++r) {
        double acc = 0.0;
        Clock::time_point t0 = Clock::now();
        for (double a : accels) {
            for (double b : bpeaks) {
                SocSpec design =
                    soc.withBpeak(b).withIpAcceleration(1, a);
                acc += GablesModel::evaluate(design, u).attainable;
            }
        }
        double seconds = secondsSince(t0);
        benchmark::DoNotOptimize(acc);
        best.sample(seconds, designs);
    }
    return best.result();
}

void
writeMeasurement(JsonWriter &json, const std::string &name,
                 const Measurement &m)
{
    json.key(name);
    json.beginObject();
    json.kv("items_per_sec", m.itemsPerSec);
    json.kv("ns_per_item", m.nsPerItem);
    json.kv("items", static_cast<size_t>(m.items));
    json.kv("seconds", m.seconds);
    json.endObject();
}

void
printMeasurement(const std::string &name, const Measurement &m)
{
    std::cout << "  " << name << ": "
              << formatDouble(m.itemsPerSec / 1e6, 3)
              << " M items/s, " << formatDouble(m.nsPerItem, 1)
              << " ns/item\n";
}

int
runManual(const std::string &json_path, int reps)
{
    bench::banner("Analytic hot path",
                  "compiled-evaluator throughput vs the rebuild-and-"
                  "revalidate reference");

    // Warm up allocators so steady-state rates are measured, not
    // first-touch costs.
    measureEvaluate8Ip(1);

    Measurement eval8 = measureEvaluate8Ip(reps);
    Measurement mixing, mixing_single;
    measureMixingWidths(std::max(1, reps / 4), mixing, mixing_single);
    Measurement grid = measureExplorerGrid(false, std::max(1, reps / 4));
    Measurement pruned = measureExplorerGrid(true,
                                             std::max(1, reps / 4));
    Measurement reference =
        measureExplorerReference(std::max(1, reps / 4));

    printMeasurement("evaluate_8ip", eval8);
    printMeasurement("mixing_4096_w8", mixing);
    printMeasurement("mixing_4096_w1", mixing_single);
    printMeasurement("explorer_grid", grid);
    printMeasurement("explorer_grid_pruned", pruned);
    printMeasurement("explorer_grid_reference", reference);

    double speedup_grid = grid.itemsPerSec / reference.itemsPerSec;
    double speedup_pruned =
        pruned.itemsPerSec / reference.itemsPerSec;
    double speedup_width =
        mixing.itemsPerSec / mixing_single.itemsPerSec;
    std::cout << "  speedup vs reference: "
              << formatDouble(speedup_grid, 1) << "x unpruned, "
              << formatDouble(speedup_pruned, 1) << "x pruned\n";
    std::cout << "  lane width " << kGridWidth << " vs 1: "
              << formatDouble(speedup_width, 2) << "x mixing grid\n";

    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.key("schema");
    json.beginObject();
    json.kv("name", "gables-model-eval-bench");
    json.kv("version", 1);
    json.endObject();
    json.kv("reps", reps);
    json.key("config");
    json.beginObject();
    json.kv("lane_width", kGridWidth);
    json.endObject();
    json.key("workloads");
    json.beginObject();
    writeMeasurement(json, "evaluate_8ip", eval8);
    writeMeasurement(json, "mixing_4096_w8", mixing);
    writeMeasurement(json, "mixing_4096_w1", mixing_single);
    writeMeasurement(json, "explorer_grid", grid);
    writeMeasurement(json, "explorer_grid_pruned", pruned);
    writeMeasurement(json, "explorer_grid_reference", reference);
    json.endObject();
    json.key("speedup");
    json.beginObject();
    json.kv("explorer_grid_vs_reference", speedup_grid);
    json.kv("explorer_grid_pruned_vs_reference", speedup_pruned);
    json.kv("mixing_4096_w8_vs_w1", speedup_width);
    json.endObject();
    json.endObject();
    writeFileAtomic(json_path, out.str());
    std::cout << "wrote " << json_path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    int reps = 20;
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = static_cast<int>(
                parseIntInRange(argv[++i], 1, 1000000, "--reps"));
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    if (!json_path.empty())
        return runManual(json_path, reps);

    gables::bench::banner(
        "Ablation 4",
        "model-evaluation cost vs N (google-benchmark timings)");
    int pargc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&pargc, passthrough.data());
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
