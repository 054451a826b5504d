/**
 * @file
 * The `gables` command implementations and dispatch: evaluate
 * SoC/usecase pairs, run sweeps, analyze catalog usecases, derive
 * empirical rooflines on the simulated Snapdragons, emit SVG/ASCII
 * plots, and record/replay whole invocations. Compiled as a library
 * (gables_cli_driver) so `gables replay` can re-enter the dispatch
 * in-process; the binary's main() in gables_main.cc only strips the
 * global flags and forwards here.
 */

#include "cli/driver.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/advisor.h"
#include "analysis/balance.h"
#include "analysis/explorer.h"
#include "analysis/provisioner.h"
#include "analysis/robustness.h"
#include "analysis/sensitivity.h"
#include "analysis/sweep.h"
#include "core/gables.h"
#include "core/serialize.h"
#include "ert/ert.h"
#include "ert/fitter.h"
#include "parallel/parallel_for.h"
#include "plot/roofline_plot.h"
#include "plot/series_plot.h"
#include "plot/viz_export.h"
#include "replay/bundle.h"
#include "replay/replayer.h"
#include "serve/server.h"
#include "serve/service.h"
#include "soc/catalog.h"
#include "soc/config.h"
#include "soc/pipeline.h"
#include "soc/usecases.h"
#include "telemetry/report.h"
#include "telemetry/report_diff.h"
#include "telemetry/span.h"
#include "telemetry/stats.h"
#include "util/arg_parser.h"
#include "util/atomic_file.h"
#include "util/json_reader.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace gables;
using namespace gables::cli;

/**
 * Map an ArgParser::parse failure to the exit-code contract: --help
 * is a success, anything else is a usage error.
 */
int
usageExit(const ArgParser &args)
{
    return args.helpRequested() ? kExitOk : kExitUsage;
}

/** Resolve a --soc option value to a catalog spec. */
SocSpec
resolveSoc(const std::string &name)
{
    if (name == "sd835" || name.empty())
        return SocCatalog::snapdragon835();
    if (name == "sd835-full")
        return SocCatalog::snapdragon835Full();
    if (name == "sd821")
        return SocCatalog::snapdragon821();
    if (name == "paper")
        return SocCatalog::paperTwoIp();
    if (name == "paper-balanced")
        return SocCatalog::paperTwoIpBalanced();
    fatal("unknown SoC '" + name + "'" +
          didYouMean(name, {"sd835", "sd835-full", "sd821", "paper",
                            "paper-balanced"}) +
          " (try sd835, sd835-full, sd821, paper, paper-balanced)");
}

/** Declare the shared --jobs option on a grid command. */
void
addJobsOption(ArgParser &args)
{
    args.addIntOption("jobs",
                      "worker threads for the grid (0 = all hardware "
                      "threads, 1 = serial)",
                      "0");
}

/** Resolve --jobs to a worker count (default: all hardware threads). */
int
resolveJobs(const ArgParser &args)
{
    long jobs = args.getInt("jobs", 0);
    if (jobs < 0 || jobs > 4096)
        fatal("--jobs must be in [0, 4096] (0 = hardware "
              "concurrency)");
    return jobs == 0 ? parallel::defaultJobs()
                     : static_cast<int>(jobs);
}

/**
 * Record the worker count and per-worker busy time of a grid
 * evaluation in the telemetry registry (the "parallel.*" names the
 * determinism contract excludes from byte-identity).
 */
void
recordParallelStats(telemetry::StatsRegistry &reg,
                    const parallel::ForStats &stats)
{
    reg.counter("parallel.workers",
                "worker-pool size used for the grid evaluation")
        .add(stats.workers);
    telemetry::Distribution &busy = reg.distribution(
        "parallel.worker_busy_s",
        "wall-clock seconds each worker spent inside the grid body");
    for (double b : stats.busySeconds)
        busy.sample(b);
}

/**
 * Finish a run report: attach the active span tracer (nullptr when
 * --profile is off, so the bytes are unchanged) and write it to
 * @p path.
 */
void
writeReport(telemetry::RunReport &report, const std::string &path)
{
    report.setProfile(telemetry::SpanTracer::active());
    std::ostringstream out;
    report.write(out);
    writeFileAtomic(path, out.str());
    std::cout << "wrote " << path << '\n';
}

/** Read a whole file, fataling with the path on failure. */
std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

int
cmdEval(int argc, const char *const *argv)
{
    ArgParser args("gables eval",
                   "evaluate a usecase on a SoC and report the bound");
    args.addOption("soc", "catalog SoC name", "paper");
    args.addOption("file", "config file with the SoC and usecases");
    args.addOption("usecase", "usecase name from the file");
    args.addDoubleOption("f", "fraction of work at IP[1]", "0.75");
    args.addDoubleOption("i0", "operational intensity at IP[0]", "8");
    args.addDoubleOption("i1", "operational intensity at IP[1]", "8");
    args.addFlag("json", "emit the result as JSON");
    args.addOption("svg", "write a scaled-roofline SVG to this path");
    args.addOption("viz-json",
                   "write the visualization JSON to this path");
    args.addFlag("ascii", "print an ASCII scaled-roofline plot");
    args.addOption("metrics",
                   "write a run-report JSON with the evaluation to "
                   "this path");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    SocSpec soc = resolveSoc("paper");
    Usecase usecase("cli", {IpWork{1.0, 1.0}});
    if (args.has("file")) {
        SocConfig cfg = loadSocConfig(args.getString("file"));
        soc = cfg.soc;
        if (cfg.usecases.empty())
            fatal("config file declares no usecases");
        usecase = args.has("usecase")
                      ? cfg.usecase(args.getString("usecase"))
                      : cfg.usecases.front();
    } else {
        soc = resolveSoc(args.getString("soc", "paper"));
        double f = args.getDouble("f", 0.75);
        std::vector<IpWork> work(soc.numIps(), IpWork{0.0, 1.0});
        work[0] = IpWork{1.0 - f, args.getDouble("i0", 8.0)};
        if (soc.numIps() > 1)
            work[1] = IpWork{f, args.getDouble("i1", 8.0)};
        usecase = Usecase("cli", work);
    }

    GablesResult result = GablesModel::evaluate(soc, usecase);
    if (args.has("json")) {
        writeJson(std::cout, soc, usecase, result);
    } else {
        std::cout << "SoC:        " << soc.name() << '\n'
                  << "Pattainable: "
                  << formatOpsRate(result.attainable) << '\n'
                  << "bottleneck:  " << result.bottleneckLabel(soc)
                  << '\n';
        TextTable t({"IP", "f", "I", "C_i (s)", "D_i (B)", "T_i (s)",
                     "1/T_i"});
        for (size_t i = 0; i < soc.numIps(); ++i) {
            const IpTiming &ti = result.ips[i];
            t.addRow({soc.ip(i).name,
                      formatDouble(usecase.fraction(i), 4),
                      formatDouble(usecase.intensity(i), 4),
                      formatDouble(ti.computeTime * 1e9, 4) + "n",
                      formatDouble(ti.dataBytes, 4),
                      formatDouble(ti.time * 1e9, 4) + "n",
                      formatOpsRate(ti.perfBound)});
        }
        t.addRow({"memory", "-",
                  formatDouble(result.averageIntensity, 4), "-",
                  formatDouble(result.totalDataBytes, 4),
                  formatDouble(result.memoryTime * 1e9, 4) + "n",
                  formatOpsRate(result.memoryPerfBound)});
        std::cout << t.render();
    }

    if (args.has("svg") || args.has("ascii")) {
        RooflinePlot plot("Gables: " + soc.name(), 0.01, 100.0);
        plot.addGables(soc, usecase);
        if (args.has("svg")) {
            std::string path = args.getString("svg");
            std::ofstream out(path);
            if (!out)
                fatal("cannot open '" + path + "'");
            out << plot.renderSvg();
            std::cout << "wrote " << path << '\n';
        }
        if (args.has("ascii"))
            std::cout << plot.renderAscii();
    }
    if (args.has("viz-json")) {
        std::string path = args.getString("viz-json");
        std::ofstream out(path);
        if (!out)
            fatal("cannot open '" + path + "'");
        writeVisualizationJson(out, soc, usecase);
        std::cout << "wrote " << path << '\n';
    }
    if (args.has("metrics")) {
        telemetry::StatsRegistry reg;
        reg.gauge("model.attainable",
                  "Gables attainable performance bound (ops/s)")
            .set(result.attainable);
        reg.gauge("model.memory_perf_bound",
                  "memory-interface performance bound (ops/s)")
            .set(result.memoryPerfBound);
        reg.gauge("model.average_intensity",
                  "usecase average operational intensity (ops/byte)")
            .set(result.averageIntensity);
        telemetry::TimeSeries &bounds = reg.timeSeries(
            "model.ip_perf_bound",
            "per-IP performance bound (ops/s) keyed by IP index");
        for (size_t i = 0; i < result.ips.size(); ++i)
            bounds.sample(static_cast<double>(i),
                          result.ips[i].perfBound);
        reg.counter("model.evals",
                    "Gables model evaluations performed")
            .add(1.0);

        telemetry::RunReport report("gables eval", soc.name());
        report.addConfig("usecase", usecase.name());
        for (size_t i = 0; i < usecase.numIps(); ++i) {
            std::string n = std::to_string(i);
            report.addConfig("f" + n, usecase.fraction(i));
            report.addConfig("i" + n, usecase.intensity(i));
        }
        report.setRegistry(&reg);
        writeReport(report, args.getString("metrics"));
    }
    return 0;
}

int
cmdSweep(int argc, const char *const *argv)
{
    ArgParser args("gables sweep",
                   "mixing sweep: performance vs fraction at IP[1]");
    args.addOption("soc", "catalog SoC name", "sd835");
    args.addDoubleOption("i0", "intensity at IP[0]", "1");
    args.addDoubleOption("i1", "intensity at IP[1]", "1");
    args.addIntOption("points", "number of f points", "9");
    args.addFlag("ascii", "plot the sweep as ASCII");
    args.addOption("metrics",
                   "write a run-report JSON with the sweep series "
                   "to this path");
    addJobsOption(args);
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    SocSpec soc = resolveSoc(args.getString("soc", "sd835"));
    long n = args.getInt("points", 9);
    if (n < 2 || n > 1000000)
        fatal("--points must be in [2, 1000000]");
    int jobs = resolveJobs(args);
    std::vector<double> fractions;
    fractions.reserve(static_cast<size_t>(n));
    for (long i = 0; i < n; ++i)
        fractions.push_back(static_cast<double>(i) / (n - 1));
    parallel::ForStats pstats;
    Series series = Sweep::mixing(soc, args.getDouble("i0", 1.0),
                                  args.getDouble("i1", 1.0), fractions,
                                  true, jobs, &pstats);

    TextTable t({"f", "normalized perf"});
    for (size_t i = 0; i < series.x.size(); ++i)
        t.addRow({formatDouble(series.x[i], 4),
                  formatDouble(series.y[i], 4)});
    std::cout << t.render();

    if (args.has("ascii")) {
        SeriesPlot plot("mixing sweep on " + soc.name(),
                        "fraction f at IP[1]", "normalized perf");
        plot.addSeries(series);
        std::cout << plot.renderAscii();
    }
    if (args.has("metrics")) {
        telemetry::StatsRegistry reg;
        telemetry::TimeSeries &ts = reg.timeSeries(
            "mixing.normalized_perf",
            "normalized attainable vs fraction f at IP[1]");
        for (size_t i = 0; i < series.x.size(); ++i)
            ts.sample(series.x[i], series.y[i]);

        // One evaluation per grid point plus the f = 0 normalization
        // baseline.
        reg.counter("model.evals",
                    "Gables model evaluations performed by the sweep")
            .add(static_cast<double>(n + 1));
        recordParallelStats(reg, pstats);

        telemetry::RunReport report("gables sweep", soc.name());
        report.addConfig("soc", args.getString("soc", "sd835"));
        report.addConfig("i0", args.getDouble("i0", 1.0));
        report.addConfig("i1", args.getDouble("i1", 1.0));
        report.addConfig("points", n);
        report.addConfig("jobs", static_cast<long>(jobs));
        report.setRegistry(&reg);
        writeReport(report, args.getString("metrics"));
    }
    return 0;
}

int
cmdSim(int argc, const char *const *argv)
{
    ArgParser args("gables sim",
                   "discrete-event simulation of a catalog SoC with "
                   "full telemetry: metrics JSON and Perfetto trace");
    args.addOption("soc",
                   "catalog SoC (sd835, sd821 use the calibrated "
                   "sims; other names go through the spec bridge)",
                   "sd835");
    args.addOption("engines",
                   "comma-separated engine names (default: all)");
    args.addDoubleOption("working-set", "working-set bytes per engine",
                         "67108864");
    args.addDoubleOption("bytes", "total bytes streamed per engine",
                         "67108864");
    args.addDoubleOption("intensity",
                         "ops per byte (the roofline knob)", "1");
    args.addIntOption("epochs",
                      "time slices for utilization-vs-time series",
                      "32");
    args.addOption("metrics", "write the run-report JSON to this "
                              "path");
    args.addOption("trace",
                   "write a Perfetto/chrome://tracing JSON to this "
                   "path");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    std::string soc_name = args.getString("soc", "sd835");
    std::unique_ptr<sim::SimSoc> soc;
    SocSpec spec = resolveSoc("paper");
    if (soc_name == "sd835" || soc_name.empty()) {
        soc = SocCatalog::snapdragon835Sim();
        spec = SocCatalog::snapdragon835();
    } else if (soc_name == "sd821") {
        soc = SocCatalog::snapdragon821Sim();
        spec = SocCatalog::snapdragon821();
    } else {
        spec = resolveSoc(soc_name);
        soc = SocCatalog::simFromSpec(spec);
    }

    std::vector<std::string> engines;
    if (args.has("engines")) {
        for (const std::string &e :
             split(args.getString("engines"), ','))
            if (!e.empty())
                engines.push_back(e);
        if (engines.empty())
            fatal("--engines names no engines");
    } else {
        for (size_t i = 0; i < spec.numIps(); ++i)
            engines.push_back(spec.ip(i).name);
    }

    telemetry::StatsRegistry reg;
    soc->attachTelemetry(&reg);
    sim::TraceRecorder trace;
    if (args.has("trace"))
        soc->attachTracer(&trace);

    sim::KernelJob job;
    job.workingSetBytes = args.getDouble("working-set", 64.0 * 1024 * 1024);
    job.totalBytes = args.getDouble("bytes", 64.0 * 1024 * 1024);
    job.opsPerByte = args.getDouble("intensity", 1.0);
    std::vector<sim::SimSoc::JobSubmission> jobs;
    for (const std::string &e : engines)
        jobs.push_back({e, job});

    long epochs = args.getInt("epochs", 32);
    if (epochs < 1 || epochs > 1000000)
        fatal("--epochs must be in [1, 1000000]");
    inform("sim: " + soc->name() + ", " +
           std::to_string(engines.size()) + " engine(s), " +
           std::to_string(epochs) + " epochs" +
           (args.has("trace") ? ", tracing" : ""));
    sim::SocRunStats stats =
        soc->run(jobs, static_cast<int>(epochs));

    std::cout << soc->name() << ": "
              << formatDouble(stats.duration * 1e3, 3)
              << " ms simulated, aggregate "
              << formatOpsRate(stats.aggregateOpsRate()) << '\n';
    TextTable et({"engine", "ops/s", "bytes/s", "DRAM bytes/s"});
    for (const sim::EngineRunStats &e : stats.engines) {
        et.addRow({e.name, formatOpsRate(e.achievedOpsRate()),
                   formatByteRate(e.achievedByteRate()),
                   formatByteRate(e.achievedMissRate())});
    }
    std::cout << et.render();
    TextTable rt({"resource", "util", "mean wait", "max queue"});
    for (const sim::ResourceStats &r : stats.resources) {
        const telemetry::Distribution *wait =
            reg.findDistribution(r.name + ".wait_time");
        const telemetry::Distribution *depth =
            reg.findDistribution(r.name + ".queue_depth");
        rt.addRow({r.name, formatDouble(r.utilization, 3),
                   wait ? formatDouble(wait->mean() * 1e9, 1) + "n"
                        : "-",
                   depth ? formatDouble(depth->max(), 0) : "-"});
    }
    std::cout << rt.render();

    if (args.has("trace")) {
        // With --profile on, the tool's own spans export as
        // "ph":"X" duration slices on per-thread profile tracks
        // alongside the simulated resource tracks.
        if (const telemetry::SpanTracer *tracer =
                telemetry::SpanTracer::active()) {
            for (const telemetry::SpanEvent &ev : tracer->events())
                trace.record("profile/thread" +
                                 std::to_string(ev.thread),
                             ev.startSeconds, ev.durationSeconds,
                             ev.path);
        }
        std::string path = args.getString("trace");
        std::ofstream out(path);
        if (!out)
            fatal("cannot open '" + path + "'");
        trace.writeChromeTrace(out);
        std::cout << "wrote " << path << " ("
                  << trace.events().size() << " slices, "
                  << trace.counterEvents().size()
                  << " counter samples)\n";
    }
    if (args.has("metrics")) {
        telemetry::RunReport report("gables sim", soc->name());
        report.addConfig("soc", soc_name);
        report.addConfig("engines", join(engines, ","));
        report.addConfig("working_set_bytes", job.workingSetBytes);
        report.addConfig("total_bytes", job.totalBytes);
        report.addConfig("ops_per_byte", job.opsPerByte);
        report.addConfig("epochs", epochs);
        report.setDuration(stats.duration);
        for (const sim::EngineRunStats &e : stats.engines) {
            report.addEngine({e.name, e.ops, e.bytes, e.missBytes,
                              e.achievedOpsRate()});
            // Model-vs-sim: compare against the single-IP Gables
            // bound min(Ai*Ppeak, I * min(Bi, Bpeak)); concurrent
            // contention shows up as a negative delta.
            bool found = false;
            for (size_t i = 0; i < spec.numIps(); ++i) {
                if (spec.ip(i).name != e.name)
                    continue;
                double bw =
                    std::min(spec.ip(i).bandwidth, spec.bpeak());
                double bound = std::min(spec.ipPeakPerf(i),
                                        job.opsPerByte * bw);
                report.addDelta(e.name, bound,
                                e.achievedOpsRate());
                found = true;
            }
            if (!found)
                warn("no spec IP named '" + e.name +
                     "'; skipping its model-vs-sim delta");
        }
        for (const sim::ResourceStats &r : stats.resources)
            report.addResource(
                {r.name, r.bytesServed, r.busyTime, r.utilization});
        report.setRegistry(&reg);
        writeReport(report, args.getString("metrics"));
    }
    return 0;
}

int
cmdUsecases(int argc, const char *const *argv)
{
    ArgParser args("gables usecases",
                   "analyze the catalog usecases on a SoC");
    args.addOption("soc", "catalog SoC name", "sd835-full");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    SocSpec soc = resolveSoc(args.getString("soc", "sd835-full"));
    TextTable t({"usecase", "target fps", "max fps", "bottleneck",
                 "DRAM MB/frame"});
    for (const UsecaseEntry &entry : UsecaseCatalog::extended()) {
        DataflowAnalysis a = entry.graph.analyze(soc);
        std::string who =
            a.bottleneckIp < 0
                ? "memory"
                : soc.ip(static_cast<size_t>(a.bottleneckIp)).name;
        t.addRow({entry.graph.name(), formatDouble(entry.targetFps, 1),
                  formatDouble(a.maxFps, 1), who,
                  formatDouble(a.dramBytesPerFrame / 1e6, 1)});
    }
    std::cout << t.render();
    return 0;
}

int
cmdErt(int argc, const char *const *argv)
{
    ArgParser args("gables ert",
                   "empirical roofline of a simulated Snapdragon IP");
    args.addOption("engine", "CPU, GPU, or DSP", "CPU");
    args.addOption("chip", "sd835 or sd821", "sd835");
    args.addOption("metrics",
                   "write a run-report JSON with the samples and the "
                   "fit to this path");
    addJobsOption(args);
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    std::string chip = args.getString("chip", "sd835");
    if (chip != "sd835" && chip != "sd821")
        fatal("unknown chip '" + chip + "'" +
              didYouMean(chip, {"sd835", "sd821"}) +
              " (try sd835 or sd821)");
    // Each pool worker builds its own simulator, so trials run
    // concurrently without sharing mutable simulator state.
    ErtSweep::SocFactory make_soc = [&chip] {
        return chip == "sd821" ? SocCatalog::snapdragon821Sim()
                               : SocCatalog::snapdragon835Sim();
    };
    int jobs = resolveJobs(args);
    ErtConfig config;
    config.intensities = ErtConfig::defaultIntensities();
    std::string engine = args.getString("engine", "CPU");
    parallel::ForStats pstats;
    auto samples = ErtSweep::run(make_soc, engine, config, jobs,
                                 &pstats);
    RooflineFit fit = RooflineFitter::fitDram(samples);

    TextTable t({"I (ops/B)", "ops/s", "DRAM B/s"});
    for (const ErtSample &s : samples)
        t.addRow({formatDouble(s.opsPerByte, 4),
                  formatOpsRate(s.opsRate),
                  formatByteRate(s.missByteRate)});
    std::cout << t.render() << "fit: peak "
              << formatOpsRate(fit.peakOps) << ", DRAM "
              << formatByteRate(fit.peakBw) << ", ridge "
              << formatDouble(fit.ridge, 3) << " ops/B\n";

    if (args.has("metrics")) {
        telemetry::StatsRegistry reg;
        telemetry::TimeSeries &ops = reg.timeSeries(
            "ert.ops_rate", "achieved ops/s vs kernel intensity");
        telemetry::TimeSeries &dram = reg.timeSeries(
            "ert.dram_byte_rate",
            "achieved DRAM-side bytes/s vs kernel intensity");
        for (const ErtSample &s : samples) {
            ops.sample(s.opsPerByte, s.opsRate);
            dram.sample(s.opsPerByte, s.missByteRate);
        }
        reg.counter("ert.fit.peak_ops",
                    "fitted peak compute rate (ops/s)")
            .add(fit.peakOps);
        reg.counter("ert.fit.peak_bw",
                    "fitted peak DRAM bandwidth (bytes/s)")
            .add(fit.peakBw);
        reg.counter("ert.fit.ridge",
                    "fitted ridge point (ops/byte)")
            .add(fit.ridge);
        recordParallelStats(reg, pstats);

        telemetry::RunReport report("gables ert", chip);
        report.addConfig("chip", chip);
        report.addConfig("engine", engine);
        report.addConfig("points",
                         static_cast<long>(samples.size()));
        report.addConfig("jobs", static_cast<long>(jobs));
        report.setRegistry(&reg);
        writeReport(report, args.getString("metrics"));
    }
    return 0;
}

int
cmdAdvise(int argc, const char *const *argv)
{
    ArgParser args("gables advise",
                   "rank design moves for a SoC/usecase pair");
    args.addOption("file", "config file with the SoC and usecases");
    args.addOption("usecase", "usecase name from the file");
    args.addOption("soc", "catalog SoC (when no file given)", "paper");
    args.addDoubleOption("f", "fraction of work at IP[1]", "0.75");
    args.addDoubleOption("i0", "intensity at IP[0]", "8");
    args.addDoubleOption("i1", "intensity at IP[1]", "0.1");
    args.addOption("metrics",
                   "write a run-report JSON with the ranked moves to "
                   "this path");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    SocSpec soc = resolveSoc("paper");
    Usecase usecase("cli", {IpWork{1.0, 1.0}});
    if (args.has("file")) {
        SocConfig cfg = loadSocConfig(args.getString("file"));
        soc = cfg.soc;
        if (cfg.usecases.empty())
            fatal("config file declares no usecases");
        usecase = args.has("usecase")
                      ? cfg.usecase(args.getString("usecase"))
                      : cfg.usecases.front();
    } else {
        soc = resolveSoc(args.getString("soc", "paper"));
        double f = args.getDouble("f", 0.75);
        std::vector<IpWork> work(soc.numIps(), IpWork{0.0, 1.0});
        work[0] = IpWork{1.0 - f, args.getDouble("i0", 8.0)};
        if (soc.numIps() > 1)
            work[1] = IpWork{f, args.getDouble("i1", 0.1)};
        usecase = Usecase("cli", work);
    }

    GablesResult base = GablesModel::evaluate(soc, usecase);
    std::cout << "current: " << formatOpsRate(base.attainable)
              << " (" << base.bottleneckLabel(soc) << ")\n\n";
    auto advice = Advisor::advise(soc, usecase);
    if (advice.empty()) {
        std::cout << "no moves found: the design is balanced for "
                     "this usecase\n";
    } else {
        TextTable t({"move", "gain", "new perf"});
        for (const Advice &a : advice) {
            t.addRow({a.description,
                      a.kind == AdviceKind::ShrinkSlack
                          ? "free"
                          : formatDouble(a.gain, 3) + "x",
                      formatOpsRate(a.newAttainable)});
        }
        std::cout << t.render();
    }
    if (args.has("metrics")) {
        telemetry::StatsRegistry reg;
        reg.gauge("advisor.base_attainable",
                  "attainable bound of the unmodified design (ops/s)")
            .set(base.attainable);
        reg.counter("advisor.moves", "design moves found")
            .add(static_cast<double>(advice.size()));
        telemetry::TimeSeries &moves = reg.timeSeries(
            "advisor.new_attainable",
            "attainable after each ranked move (ops/s), keyed by "
            "rank");
        for (size_t i = 0; i < advice.size(); ++i)
            moves.sample(static_cast<double>(i),
                         advice[i].newAttainable);

        telemetry::RunReport report("gables advise", soc.name());
        report.addConfig("usecase", usecase.name());
        for (size_t i = 0; i < usecase.numIps(); ++i) {
            std::string n = std::to_string(i);
            report.addConfig("f" + n, usecase.fraction(i));
            report.addConfig("i" + n, usecase.intensity(i));
        }
        report.setRegistry(&reg);
        writeReport(report, args.getString("metrics"));
    }
    return 0;
}

int
cmdRobust(int argc, const char *const *argv)
{
    ArgParser args("gables robust",
                   "Monte-Carlo robustness of a usecase estimate");
    args.addOption("soc", "catalog SoC name", "paper-balanced");
    args.addDoubleOption("f", "fraction of work at IP[1]", "0.75");
    args.addDoubleOption("i0", "intensity at IP[0]", "8");
    args.addDoubleOption("i1", "intensity at IP[1]", "8");
    args.addIntOption("samples", "Monte-Carlo samples", "1000");
    args.addDoubleOption("target", "ops/s target (0 = none)", "0");
    args.addIntOption("seed", "RNG seed (runs are deterministic "
                              "for a given seed)",
                      "1");
    args.addOption("metrics",
                   "write a run-report JSON with the estimate "
                   "distribution to this path");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    SocSpec soc = resolveSoc(args.getString("soc", "paper-balanced"));
    double f = args.getDouble("f", 0.75);
    std::vector<IpWork> work(soc.numIps(), IpWork{0.0, 1.0});
    work[0] = IpWork{1.0 - f, args.getDouble("i0", 8.0)};
    if (soc.numIps() > 1)
        work[1] = IpWork{f, args.getDouble("i1", 8.0)};
    Usecase usecase("cli", work);

    Robustness::Options opts;
    long samples = args.getInt("samples", 1000);
    if (samples < 1 || samples > 100000000)
        fatal("--samples must be in [1, 100000000]");
    opts.samples = static_cast<int>(samples);
    opts.target = args.getDouble("target", 0.0);
    long seed = args.getInt("seed", 1);
    if (seed < 0)
        fatal("--seed must be >= 0");
    opts.seed = static_cast<uint64_t>(seed);
    RobustnessReport r = Robustness::analyze(soc, usecase, opts);
    std::cout << "nominal: " << formatOpsRate(r.nominal)
              << "\nmean:    " << formatOpsRate(r.mean)
              << "\np5/p50/p95: " << formatOpsRate(r.p5) << " / "
              << formatOpsRate(r.p50) << " / "
              << formatOpsRate(r.p95) << '\n';
    if (opts.target > 0.0)
        std::cout << "P(meets target): "
                  << formatDouble(r.meetsTargetProbability * 100.0, 1)
                  << "%\n";
    std::cout << "bottleneck shares:\n";
    for (const auto &[ip, share] : r.bottleneckShare) {
        std::string who = ip < 0 ? "memory"
                                 : soc.ip(static_cast<size_t>(ip)).name;
        std::cout << "  " << who << ": "
                  << formatDouble(share * 100.0, 1) << "%\n";
    }
    if (args.has("metrics")) {
        telemetry::StatsRegistry reg;
        reg.gauge("robust.nominal",
                  "performance at the unperturbed usecase (ops/s)")
            .set(r.nominal);
        reg.gauge("robust.mean", "Monte-Carlo sample mean (ops/s)")
            .set(r.mean);
        reg.gauge("robust.p5", "5th percentile performance (ops/s)")
            .set(r.p5);
        reg.gauge("robust.p50", "median performance (ops/s)")
            .set(r.p50);
        reg.gauge("robust.p95", "95th percentile performance (ops/s)")
            .set(r.p95);
        if (opts.target > 0.0)
            reg.gauge("robust.meets_target_probability",
                      "fraction of samples meeting the ops/s target")
                .set(r.meetsTargetProbability);
        telemetry::TimeSeries &shares = reg.timeSeries(
            "robust.bottleneck_share",
            "bottleneck frequency keyed by IP index (-1 = memory)");
        for (const auto &[ip, share] : r.bottleneckShare)
            shares.sample(static_cast<double>(ip), share);

        telemetry::RunReport report("gables robust", soc.name());
        report.addConfig("usecase", usecase.name());
        report.addConfig("f", f);
        report.addConfig("samples", samples);
        report.addConfig("target", opts.target);
        report.addConfig("seed", seed);
        report.setRegistry(&reg);
        writeReport(report, args.getString("metrics"));
    }
    return 0;
}

int
cmdSensitivity(int argc, const char *const *argv)
{
    ArgParser args("gables sensitivity",
                   "elasticity of the attainable bound w.r.t. every "
                   "hardware and software parameter");
    args.addOption("soc", "catalog SoC name", "paper");
    args.addOption("file", "config file with the SoC and usecases");
    args.addOption("usecase", "usecase name from the file");
    args.addDoubleOption("f", "fraction of work at IP[1]", "0.75");
    args.addDoubleOption("i0", "intensity at IP[0]", "8");
    args.addDoubleOption("i1", "intensity at IP[1]", "8");
    args.addDoubleOption("step", "relative probe step", "0.01");
    args.addOption("metrics",
                   "write a run-report JSON with the elasticities to "
                   "this path");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    SocSpec soc = resolveSoc("paper");
    Usecase usecase("cli", {IpWork{1.0, 1.0}});
    if (args.has("file")) {
        SocConfig cfg = loadSocConfig(args.getString("file"));
        soc = cfg.soc;
        if (cfg.usecases.empty())
            fatal("config file declares no usecases");
        usecase = args.has("usecase")
                      ? cfg.usecase(args.getString("usecase"))
                      : cfg.usecases.front();
    } else {
        soc = resolveSoc(args.getString("soc", "paper"));
        double f = args.getDouble("f", 0.75);
        std::vector<IpWork> work(soc.numIps(), IpWork{0.0, 1.0});
        work[0] = IpWork{1.0 - f, args.getDouble("i0", 8.0)};
        if (soc.numIps() > 1)
            work[1] = IpWork{f, args.getDouble("i1", 8.0)};
        usecase = Usecase("cli", work);
    }
    double step = args.getDouble("step", 0.01);
    if (!(step > 0.0) || !(step < 1.0))
        fatal("--step must be in (0, 1)");

    auto entries = Sensitivity::analyze(soc, usecase, step);
    TextTable t({"parameter", "elasticity"});
    for (const SensitivityEntry &e : entries)
        t.addRow({e.parameter, formatDouble(e.elasticity, 4)});
    std::cout << t.render();

    if (args.has("metrics")) {
        telemetry::StatsRegistry reg;
        for (const SensitivityEntry &e : entries)
            reg.gauge("sensitivity." + e.parameter,
                      "elasticity d ln(P) / d ln(" + e.parameter +
                          ")")
                .set(e.elasticity);

        telemetry::RunReport report("gables sensitivity", soc.name());
        report.addConfig("usecase", usecase.name());
        report.addConfig("step", step);
        for (size_t i = 0; i < usecase.numIps(); ++i) {
            std::string n = std::to_string(i);
            report.addConfig("f" + n, usecase.fraction(i));
            report.addConfig("i" + n, usecase.intensity(i));
        }
        report.setRegistry(&reg);
        writeReport(report, args.getString("metrics"));
    }
    return 0;
}

/** Print a one-screen human summary of a parsed run report. */
void
showReport(const std::string &path, const JsonValue &doc)
{
    std::cout << path << ":\n";
    if (doc.has("schema"))
        std::cout << "  schema:    "
                  << doc.at("schema").at("name").asString() << " v"
                  << formatDouble(
                         doc.at("schema").at("version").asNumber(), 0)
                  << '\n';
    if (doc.has("generator"))
        std::cout << "  generator: "
                  << doc.at("generator").asString() << '\n';
    if (doc.has("subject"))
        std::cout << "  subject:   " << doc.at("subject").asString()
                  << '\n';
    if (doc.has("config")) {
        std::cout << "  config:   ";
        for (const auto &m : doc.at("config").members()) {
            std::cout << ' ' << m.first << '=';
            if (m.second.isString())
                std::cout << m.second.asString();
            else if (m.second.isNumber())
                std::cout << formatDouble(m.second.asNumber(), 6);
        }
        std::cout << '\n';
    }
    if (doc.has("duration_s"))
        std::cout << "  duration:  "
                  << formatDouble(doc.at("duration_s").asNumber() * 1e3,
                                  3)
                  << " ms simulated\n";
    if (doc.has("engines"))
        std::cout << "  engines:   " << doc.at("engines").size()
                  << " row(s)\n";
    if (doc.has("resources"))
        std::cout << "  resources: " << doc.at("resources").size()
                  << " row(s)\n";
    if (doc.has("stats"))
        std::cout << "  stats:     " << doc.at("stats").size()
                  << " metric(s)\n";
    if (doc.has("profile")) {
        const JsonValue &prof = doc.at("profile");
        std::cout << "  profile:   "
                  << formatDouble(prof.at("wall_s").asNumber() * 1e3,
                                  3)
                  << " ms wall, "
                  << formatDouble(prof.at("threads").asNumber(), 0)
                  << " thread(s)\n";
        for (const JsonValue &span : prof.at("spans").items())
            std::cout << "    " << span.at("name").asString() << ": "
                      << formatDouble(
                             span.at("total_s").asNumber() * 1e3, 3)
                      << " ms over "
                      << formatDouble(span.at("count").asNumber(), 0)
                      << " call(s)\n";
    }
}

int
cmdReport(int argc, const char *const *argv)
{
    ArgParser args(
        "gables report",
        "inspect and diff run-report JSON artifacts:\n"
        "  gables report show FILE\n"
        "  gables report diff A.json B.json [tolerances]\n"
        "diff exits 0 when the reports match within tolerance, 1 "
        "when they differ");
    args.addDoubleOption("tol-rel",
                         "relative tolerance when comparing numeric "
                         "fields",
                         "0");
    args.addDoubleOption("tol-abs",
                         "absolute tolerance when comparing numeric "
                         "fields",
                         "0");
    args.addDoubleOption(
        "min-ratio",
        "one-sided gate: a numeric field fails only when B/A falls "
        "below this ratio (perf baselines; overrides --tol-*)",
        "-1");
    args.addOption("ignore",
                   "field names or dotted path prefixes to skip: "
                   "one comma-separated list or repeated flags");
    args.addIntOption("max-diffs", "differences to list before "
                                   "truncating",
                      "100");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    const std::vector<std::string> &pos = args.positional();
    if (pos.empty()) {
        std::cerr << "gables report: expected 'show' or 'diff'\n"
                  << args.usage();
        return kExitUsage;
    }
    const std::string &verb = pos.front();
    if (verb == "show") {
        if (pos.size() != 2) {
            std::cerr << "gables report show: expected exactly one "
                         "report path\n"
                      << args.usage();
            return kExitUsage;
        }
        // Malformed JSON escapes as FatalError and exits 1 through
        // the top-level handler, mirroring `gables validate`.
        showReport(pos[1], parseJson(slurpFile(pos[1])));
        return kExitOk;
    }
    if (verb == "diff") {
        if (pos.size() != 3) {
            std::cerr << "gables report diff: expected exactly two "
                         "report paths\n"
                      << args.usage();
            return kExitUsage;
        }
        telemetry::ReportDiffOptions opts;
        opts.tolRel = args.getDouble("tol-rel", 0.0);
        opts.tolAbs = args.getDouble("tol-abs", 0.0);
        opts.minRatio = args.getDouble("min-ratio", -1.0);
        if (opts.tolRel < 0.0 || opts.tolAbs < 0.0) {
            std::cerr << "gables report diff: --tol-rel and "
                         "--tol-abs must be >= 0\n";
            return kExitUsage;
        }
        long max_diffs = args.getInt("max-diffs", 100);
        if (max_diffs < 1 || max_diffs > 1000000) {
            std::cerr << "gables report diff: --max-diffs must be "
                         "in [1, 1000000]\n";
            return kExitUsage;
        }
        opts.maxDiffs = static_cast<size_t>(max_diffs);

        JsonValue a = parseJson(slurpFile(pos[1]));
        JsonValue b = parseJson(slurpFile(pos[2]));
        telemetry::addIgnoreSpecs(opts, args.getStrings("ignore"));

        telemetry::ReportDiffResult result =
            telemetry::diffReports(a, b, opts);
        if (result.identical()) {
            std::cout << pos[1] << " and " << pos[2]
                      << " match within tolerance ("
                      << result.fieldsCompared
                      << " field(s) compared)\n";
            return kExitOk;
        }
        std::cout << pos[1] << " and " << pos[2] << " differ ("
                  << result.diffs.size()
                  << (result.truncated ? "+" : "")
                  << " difference(s), " << result.fieldsCompared
                  << " field(s) compared):\n"
                  << telemetry::formatDiff(result);
        return kExitError;
    }
    std::cerr << "gables report: unknown action '" << verb << "'"
              << didYouMean(verb, {"show", "diff"}) << '\n'
              << args.usage();
    return kExitUsage;
}

int
cmdPipeline(int argc, const char *const *argv)
{
    ArgParser args("gables pipeline",
                   "simulate a catalog usecase dataflow frame by "
                   "frame");
    args.addOption("usecase", "hdr, capture, hfr, playback, lens, "
                              "wifi",
                   "hfr");
    args.addIntOption("frames", "frames to simulate", "96");
    args.addDoubleOption("fps", "source pacing (0 = unpaced)", "0");
    args.addOption("trace",
                   "write a chrome://tracing JSON to this path");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    std::string name = args.getString("usecase", "hfr");
    UsecaseEntry entry = UsecaseCatalog::videocaptureHfr();
    if (name == "hdr")
        entry = UsecaseCatalog::hdrPlus();
    else if (name == "capture")
        entry = UsecaseCatalog::videocapture();
    else if (name == "hfr")
        entry = UsecaseCatalog::videocaptureHfr();
    else if (name == "playback")
        entry = UsecaseCatalog::videoplaybackUi();
    else if (name == "lens")
        entry = UsecaseCatalog::googleLens();
    else if (name == "wifi")
        entry = UsecaseCatalog::wifiStreaming();
    else
        fatal("unknown usecase '" + name + "'" +
              didYouMean(name, {"hdr", "capture", "hfr", "playback",
                                "lens", "wifi"}));

    SocSpec soc = SocCatalog::snapdragon835Full();
    sim::PipelineSim sim(soc, entry.graph);
    sim::TraceRecorder trace;
    if (args.has("trace"))
        sim.setTraceRecorder(&trace);
    long frames = args.getInt("frames", 96);
    if (frames < 1 || frames > 1000000)
        fatal("--frames must be in [1, 1000000]");
    sim::PipelineStats stats =
        sim.run(static_cast<int>(frames), args.getDouble("fps", 0.0));
    if (args.has("trace")) {
        std::string path = args.getString("trace");
        std::ofstream out(path);
        if (!out)
            fatal("cannot open '" + path + "'");
        trace.writeChromeTrace(out);
        std::cout << "wrote " << path << " ("
                  << trace.events().size() << " events)\n";
    }
    DataflowAnalysis a = entry.graph.analyze(soc);
    std::cout << entry.graph.name() << ": simulated "
              << formatDouble(stats.steadyFps, 1)
              << " fps (analytic bound "
              << formatDouble(a.maxFps, 1) << ", target "
              << formatDouble(entry.targetFps, 0) << ")\n";
    TextTable t({"resource", "utilization"});
    for (const sim::ResourceStats &r : stats.resources) {
        if (r.utilization > 0.01)
            t.addRow({r.name, formatDouble(r.utilization, 3)});
    }
    std::cout << t.render();
    return 0;
}

int
cmdExplore(int argc, const char *const *argv)
{
    ArgParser args("gables explore",
                   "enumerate designs and print the Pareto frontier");
    args.addOption("usecase", "catalog usecase scoring the designs "
                              "(hdr, capture, hfr, playback, lens, "
                              "wifi, gaming, call, ar)",
                   "capture");
    args.addIntOption("points", "grid points per knob", "5");
    args.addOption("metrics",
                   "write a run-report JSON with the frontier to "
                   "this path");
    args.addFlag("prune",
                 "skip grid regions whose best corner is dominated "
                 "(default; the frontier is identical either way)");
    args.addFlag("no-prune",
                 "evaluate every design in the grid cross product");
    addJobsOption(args);
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);
    if (args.has("prune") && args.has("no-prune"))
        fatal("--prune and --no-prune are mutually exclusive");

    SocSpec base = SocCatalog::snapdragon835Full();
    std::string name = args.getString("usecase", "capture");
    std::vector<Usecase> portfolio;
    for (const UsecaseEntry &entry : UsecaseCatalog::extended()) {
        std::string n = entry.graph.name();
        bool match =
            (name == "hdr" && n == "HDR+") ||
            (name == "capture" && n == "Videocapture") ||
            (name == "hfr" && n == "Videocapture (HFR)") ||
            (name == "playback" && n == "Videoplayback UI") ||
            (name == "lens" && n == "Google Lens") ||
            (name == "wifi" && n == "WiFi streaming") ||
            (name == "gaming" && n == "3D gaming") ||
            (name == "call" && n == "Video call") ||
            (name == "ar" && n == "AR navigation");
        if (match)
            portfolio.push_back(entry.graph.toUsecase(base));
    }
    if (portfolio.empty())
        fatal("unknown usecase '" + name + "'" +
              didYouMean(name, {"hdr", "capture", "hfr", "playback",
                                "lens", "wifi", "gaming", "call",
                                "ar"}));

    CostModel cost;
    cost.costPerAcceleration = 1.0;
    cost.costPerBpeak = 0.5e-9;
    DesignExplorer explorer(base, portfolio, cost);
    long points = args.getInt("points", 5);
    if (points < 1 || points > 10000)
        fatal("--points must be in [1, 10000]");
    std::vector<double> bpeaks;
    for (long i = 0; i < points; ++i)
        bpeaks.push_back(15e9 + i * 15e9);
    explorer.sweepBpeak(bpeaks);
    int jobs = resolveJobs(args);
    ExploreOptions opts;
    opts.jobs = jobs;
    opts.prune = !args.has("no-prune");
    ExploreStats estats;
    auto frontier = explorer.exploreFrontier(opts, &estats);

    std::cout << "explored " << explorer.gridSize()
              << " designs for '" << name << "'; frontier:\n";
    TextTable t({"Bpeak", "perf", "cost"});
    for (const Candidate &c : frontier) {
        t.addRow({formatByteRate(c.soc.bpeak()),
                  formatOpsRate(c.minPerf),
                  formatDouble(c.cost, 1)});
    }
    std::cout << t.render();

    if (args.has("metrics")) {
        telemetry::StatsRegistry reg;
        reg.counter("explorer.candidates",
                    "designs in the knob cross product")
            .add(static_cast<double>(explorer.gridSize()));
        reg.counter("explorer.pareto",
                    "designs on the Pareto frontier")
            .add(static_cast<double>(frontier.size()));
        reg.counter("model.evals",
                    "Gables model evaluations performed, including "
                    "subgrid bound probes")
            .add(static_cast<double>(estats.evals));
        reg.counter("model.evals_pruned",
                    "model evaluations skipped via subgrid bounds")
            .add(static_cast<double>(estats.evalsPruned));
        reg.counter("model.subgrids_skipped",
                    "grid regions skipped whole by bound pruning")
            .add(static_cast<double>(estats.subgridsSkipped));
        telemetry::TimeSeries &ts = reg.timeSeries(
            "explorer.frontier.perf_vs_cost",
            "frontier minimum attainable ops/s keyed by design cost");
        for (const Candidate &c : frontier)
            ts.sample(c.cost, c.minPerf);
        recordParallelStats(reg, estats.forStats);

        telemetry::RunReport report("gables explore", base.name());
        report.addConfig("usecase", name);
        report.addConfig("points", points);
        report.addConfig("jobs", static_cast<long>(jobs));
        report.setRegistry(&reg);
        writeReport(report, args.getString("metrics"));
    }
    return 0;
}

int
cmdProvision(int argc, const char *const *argv)
{
    ArgParser args("gables provision",
                   "shrink a SoC to the cheapest design meeting "
                   "every catalog usecase target");
    args.addOption("metrics",
                   "write a run-report JSON with the sufficient "
                   "design to this path");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    SocSpec start = SocCatalog::snapdragon835Full();
    std::vector<Requirement> reqs;
    for (const UsecaseEntry &entry : UsecaseCatalog::extended()) {
        Usecase u = entry.graph.toUsecase(start);
        double capability =
            GablesModel::evaluate(start, u).attainable;
        double target =
            entry.graph.opsPerFrame() * entry.targetFps;
        reqs.push_back(
            Requirement{u, std::min(target, capability * 0.999)});
    }
    ProvisionedDesign r = Provisioner::minimize(start, reqs);
    std::cout << (r.feasible ? "feasible" : "INFEASIBLE start")
              << "; sufficient design:\n";
    TextTable t({"knob", "generous", "sufficient"});
    t.addRow({"Bpeak", formatByteRate(start.bpeak()),
              formatByteRate(r.soc.bpeak())});
    for (size_t i = 0; i < start.numIps(); ++i) {
        t.addRow({start.ip(i).name + " Bi",
                  formatByteRate(start.ip(i).bandwidth),
                  formatByteRate(r.soc.ip(i).bandwidth)});
    }
    std::cout << t.render();
    if (args.has("metrics")) {
        telemetry::StatsRegistry reg;
        reg.gauge("provision.feasible",
                  "1 when the generous start met every requirement")
            .set(r.feasible ? 1.0 : 0.0);
        reg.counter("provision.requirements",
                    "catalog usecase targets the design must meet")
            .add(static_cast<double>(reqs.size()));
        reg.gauge("provision.bpeak_start",
                  "Bpeak of the generous starting design (bytes/s)")
            .set(start.bpeak());
        reg.gauge("provision.bpeak_sufficient",
                  "Bpeak of the shrunk sufficient design (bytes/s)")
            .set(r.soc.bpeak());
        telemetry::TimeSeries &bw = reg.timeSeries(
            "provision.ip_bandwidth",
            "sufficient per-IP bandwidth (bytes/s) keyed by IP "
            "index");
        for (size_t i = 0; i < r.soc.numIps(); ++i)
            bw.sample(static_cast<double>(i),
                      r.soc.ip(i).bandwidth);

        telemetry::RunReport report("gables provision",
                                    start.name());
        report.addConfig("requirements",
                         static_cast<long>(reqs.size()));
        report.setRegistry(&reg);
        writeReport(report, args.getString("metrics"));
    }
    return 0;
}

int
cmdGlossary(int argc, const char *const *argv)
{
    // Reproduces the paper's Table II: the Gables parameter glossary.
    ArgParser args("gables glossary",
                   "print the Gables parameter glossary (Table II)");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);
    TextTable t({"Parameter", "Description"});
    t.setAlign(1, TextTable::Align::Left);
    t.addRow({"-- HW inputs --", ""});
    t.addRow({"Ppeak", "Peak performance of CPUs (ops/sec)"});
    t.addRow({"Bpeak", "Peak off-chip bandwidth (bytes/sec)"});
    t.addRow({"Ai", "Peak acceleration of IP[i] (unitless)"});
    t.addRow({"Bi", "Peak bandwidth to/from IP[i] (bytes/sec)"});
    t.addRow({"-- SW inputs --", ""});
    t.addRow({"fi", "Fraction of usecase work at IP[i] (ops)"});
    t.addRow({"Ii",
              "Operational intensity of usecase at IP[i] (ops/byte)"});
    t.addRow({"-- Tmp values --", ""});
    t.addRow({"Ci", "Compute time at IP[i] (sec)"});
    t.addRow({"Di", "Data transferred for IP[i] (bytes)"});
    t.addRow({"TIP[i]", "Time at IP[i] (sec)"});
    t.addRow({"Tmemory", "Time on chip memory interface (sec)"});
    t.addRow({"-- Output --", ""});
    t.addRow({"Pattainable",
              "Upper bound on SoC performance (ops/sec)"});
    std::cout << t.render();
    return 0;
}

int
cmdBalance(int argc, const char *const *argv)
{
    ArgParser args("gables balance",
                   "balance report and sufficient bandwidths");
    args.addOption("soc", "catalog SoC name", "paper-balanced");
    args.addDoubleOption("f", "fraction of work at IP[1]", "0.75");
    args.addDoubleOption("i0", "intensity at IP[0]", "8");
    args.addDoubleOption("i1", "intensity at IP[1]", "8");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    SocSpec soc = resolveSoc(args.getString("soc", "paper-balanced"));
    double f = args.getDouble("f", 0.75);
    std::vector<IpWork> work(soc.numIps(), IpWork{0.0, 1.0});
    work[0] = IpWork{1.0 - f, args.getDouble("i0", 8.0)};
    if (soc.numIps() > 1)
        work[1] = IpWork{f, args.getDouble("i1", 8.0)};
    Usecase usecase("cli", work);

    BalanceReport report = Balance::report(soc, usecase);
    std::cout << "Pattainable: " << formatOpsRate(report.attainable)
              << "\nmax slack:   "
              << formatDouble(report.maxSlack * 100.0, 2) << "%\n"
              << "sufficient Bpeak: "
              << formatByteRate(Balance::sufficientBpeak(soc, usecase))
              << " (configured "
              << formatByteRate(soc.bpeak()) << ")\n";
    return 0;
}

int
cmdValidate(int argc, const char *const *argv)
{
    ArgParser args("gables validate",
                   "lint a config file without running anything: "
                   "parse it, check the model invariants, and flag "
                   "suspect values");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);
    if (args.positional().size() != 1) {
        std::cerr << "gables validate: expected exactly one config "
                     "file path\n"
                  << args.usage();
        return kExitUsage;
    }
    const std::string &path = args.positional().front();
    // Parse errors escape as ConfigError ("path:line: message") and
    // exit 1 through the top-level handler.
    SocConfig cfg = loadSocConfig(path);
    int errors = 0;
    int warnings = 0;
    for (const LintFinding &f : lintSocConfig(cfg)) {
        (f.error ? errors : warnings) += 1;
        std::cerr << path << ": "
                  << (f.error ? "error: " : "warning: ") << f.message
                  << '\n';
    }
    if (errors > 0) {
        std::cerr << path << ": invalid (" << errors << " error(s), "
                  << warnings << " warning(s))\n";
        return kExitError;
    }
    std::cout << path << ": ok: SoC '" << cfg.soc.name() << "', "
              << cfg.soc.numIps() << " IP(s), " << cfg.usecases.size()
              << " usecase(s)";
    if (warnings > 0)
        std::cout << ", " << warnings << " warning(s)";
    std::cout << '\n';
    return kExitOk;
}

/**
 * Render one replay outcome on stdout/stderr. Detail goes to stdout
 * (it is the diff listing users pipe and grep), status to stdout as
 * a one-liner.
 */
void
printReplayOutcome(const std::string &path,
                   const replay::ReplayOutcome &outcome)
{
    std::cout << path << ": " << outcome.status;
    if (outcome.fieldsCompared > 0)
        std::cout << " (" << outcome.fieldsCompared
                  << " field(s) compared, " << outcome.diffCount
                  << " difference(s))";
    std::cout << '\n';
    if (!outcome.matched() && !outcome.detail.empty())
        std::cout << outcome.detail
                  << (outcome.detail.back() == '\n' ? "" : "\n");
}

int
cmdReplay(int argc, const char *const *argv)
{
    ArgParser args(
        "gables replay",
        "re-execute a recorded invocation bundle in-process and "
        "diff its fresh RunReport against the recorded one:\n"
        "  gables replay BUNDLE.json\n"
        "  gables replay --all DIR\n"
        "exit codes: 0 replay matched, 1 replay diverged, 2 bundle "
        "unreadable or unsupported schema");
    args.addFlag("all",
                 "treat the path as a directory and replay every "
                 "*.json bundle in it, with a summary table");
    args.addOption("ignore",
                   "extra report fields/paths to skip on top of the "
                   "bundle's tolerance block: one comma-separated "
                   "list or repeated flags");
    args.addOption("save-fresh",
                   "write each fresh RunReport into this directory "
                   "as <bundle>.fresh.json (for offline diffing)");
    args.addOption("out-dir",
                   "directory for artifacts the replayed command "
                   "writes to relative paths (recorded --metrics "
                   "files and the like); pass an empty value to "
                   "write them into the current directory as the "
                   "original run did",
                   "out/replay");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);
    if (args.positional().size() != 1) {
        std::cerr << "gables replay: expected exactly one bundle "
                     "path (or a directory with --all)\n"
                  << args.usage();
        return kExitUsage;
    }

    replay::ReplayOptions opts;
    opts.saveFreshDir = args.getString("save-fresh");
    opts.artifactDir = args.getString("out-dir", "out/replay");
    {
        telemetry::ReportDiffOptions extra;
        telemetry::addIgnoreSpecs(extra, args.getStrings("ignore"));
        opts.extraIgnore = extra.ignore;
    }
    replay::CommandRunner runner =
        [](const std::vector<std::string> &cmd_argv) {
            return runCommand(cmd_argv);
        };

    if (!args.has("all")) {
        replay::ReplayOutcome outcome = replay::replayBundle(
            args.positional().front(), runner, opts);
        printReplayOutcome(args.positional().front(), outcome);
        return outcome.exitCode;
    }

    std::vector<std::string> bundles =
        replay::listBundles(args.positional().front());
    if (bundles.empty())
        fatal("no *.json replay bundles in '" +
              args.positional().front() + "'");
    int worst = kExitOk;
    size_t matched = 0;
    TextTable t({"bundle", "command", "status", "fields", "diffs"});
    for (const std::string &path : bundles) {
        replay::ReplayOutcome outcome =
            replay::replayBundle(path, runner, opts);
        if (outcome.matched())
            ++matched;
        else
            printReplayOutcome(path, outcome);
        worst = std::max(worst, outcome.exitCode);
        std::string stem = path;
        size_t slash = stem.find_last_of('/');
        if (slash != std::string::npos)
            stem = stem.substr(slash + 1);
        t.addRow({stem, outcome.subcommand, outcome.status,
                  std::to_string(outcome.fieldsCompared),
                  std::to_string(outcome.diffCount)});
    }
    std::cout << t.render() << matched << "/" << bundles.size()
              << " bundle(s) replayed clean\n";
    return worst;
}

// Set by the SIGINT/SIGTERM handler; polled by the serve loop so a
// signalled daemon still flushes its stats snapshot before exiting.
std::atomic<bool> g_serve_stop{false};

extern "C" void
serveSignalHandler(int)
{
    g_serve_stop.store(true);
}

int
cmdServe(int argc, const char *const *argv)
{
    ArgParser args(
        "gables serve",
        "run the evaluation daemon: newline-delimited JSON requests "
        "over a unix-domain socket or loopback TCP (docs/SERVE.md):\n"
        "  gables serve --socket /tmp/gables.sock\n"
        "  gables serve --port 0 --stats-out stats.json\n"
        "with --port 0 the bound port is printed on stdout as\n"
        "'gables serve: listening on 127.0.0.1:<port>'");
    args.addOption("socket",
                   "unix-domain socket path to listen on (the file "
                   "is replaced and removed on exit)");
    args.addIntOption("port",
                      "loopback TCP port to listen on (0 = pick an "
                      "ephemeral port); ignored when --socket is set",
                      "-1");
    addJobsOption(args);
    args.addIntOption("cache",
                      "compiled-evaluator LRU cache capacity "
                      "(entries)",
                      "64");
    args.addOption("stats-out",
                   "write the final telemetry RunReport to this path "
                   "on shutdown (atomic temp+rename)");
    args.addOption("record-requests",
                   "tee every handled request/response pair to this "
                   "JSONL file (the serve-side --record)");
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);
    if (!args.positional().empty()) {
        std::cerr << "gables serve: unexpected positional argument '"
                  << args.positional().front() << "'\n"
                  << args.usage();
        return kExitUsage;
    }
    std::string socket_path = args.getString("socket");
    long port = args.getInt("port", -1);
    if (socket_path.empty() && port < 0) {
        std::cerr << "gables serve: need --socket PATH or --port N\n"
                  << args.usage();
        return kExitUsage;
    }
    if (socket_path.empty() && port > 65535)
        fatal("--port must be in [0, 65535]");
    long cache = args.getInt("cache", 64);
    if (cache < 1 || cache > 1000000)
        fatal("--cache must be in [1, 1000000]");

    serve::ServeOptions service_opts;
    service_opts.jobs = resolveJobs(args);
    service_opts.cacheCapacity = static_cast<size_t>(cache);
    service_opts.recordPath = args.getString("record-requests");
    serve::ServeService service(service_opts);

    serve::ServerOptions server_opts;
    server_opts.socketPath = socket_path;
    server_opts.port = socket_path.empty()
                           ? static_cast<int>(port)
                           : 0;
    server_opts.statsOutPath = args.getString("stats-out");
    server_opts.stopFlag = &g_serve_stop;
    serve::ServeServer server(service, server_opts);
    server.start();

    // Writes after a peer disconnects must surface as EPIPE errors,
    // not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);

    if (socket_path.empty())
        std::cout << "gables serve: listening on 127.0.0.1:"
                  << server.port() << std::endl;
    else
        std::cout << "gables serve: listening on " << socket_path
                  << std::endl;

    size_t accepted = server.run();
    std::cout << "gables serve: shut down after " << accepted
              << " connection(s)\n";
    return kExitOk;
}

} // namespace

namespace gables {
namespace cli {

void
usage(std::ostream &out)
{
    out << "usage: gables [--log-level L] [--profile] "
           "[--record PATH] <command> [options]\n"
           "commands:\n"
           "  eval        evaluate a usecase on a SoC\n"
           "  sweep       mixing sweep over the work fraction\n"
           "  sim         simulate a SoC with telemetry (metrics JSON\n"
           "              + Perfetto trace with counter tracks)\n"
           "  usecases    analyze the catalog usecases\n"
           "  ert         empirical roofline on the simulated chip\n"
           "  balance     balance report and sufficient bandwidths\n"
           "  advise      rank design moves (supports --file configs)\n"
           "  sensitivity parameter elasticities of the bound\n"
           "  robust      Monte-Carlo robustness of an estimate\n"
           "  pipeline    frame-pipeline simulation of a usecase\n"
           "  explore     design-space exploration with Pareto output\n"
           "  provision   shrink-to-fit inverse design for the "
           "catalog\n"
           "  report      show or diff run-report JSON artifacts\n"
           "  replay      re-run a recorded bundle and diff its "
           "RunReport\n"
           "  serve       evaluation daemon speaking JSON lines over\n"
           "              a unix socket or loopback TCP\n"
           "  validate    lint a config file without running anything\n"
           "  glossary    the Gables parameter glossary (Table II)\n"
           "global options:\n"
           "  --log-level L  minimum severity written to stderr:\n"
           "                 debug, info (default), warn, error\n"
           "  --profile      trace the tool's own phases: adds a\n"
           "                 'profile' subtree to --metrics reports,\n"
           "                 span slices to --trace output, and a\n"
           "                 summary table on stderr\n"
           "  --record PATH  record this invocation (argv, config\n"
           "                 files, RunReport) into a replay bundle\n"
           "                 at PATH; outputs are unchanged\n"
           "exit codes: 0 success, 1 data/config error, 2 usage "
           "error (see docs/ERRORS.md)\n"
           "run 'gables <command> --help' for per-command options\n";
}

int
runCommand(int argc, const char *const *argv)
{
    if (argc < 2) {
        usage(std::cerr);
        return kExitUsage;
    }
    std::string cmd = argv[1];

    int code = kExitUsage;
    bool known = true;
    try {
        // Root span around the whole command, so the profile's top
        // level reads "gables.<cmd>" and totals track wall time.
        std::string root = "gables." + cmd;
        gables::telemetry::ScopedSpan span(root.c_str());
        if (cmd == "eval")
            code = cmdEval(argc - 1, argv + 1);
        else if (cmd == "sweep")
            code = cmdSweep(argc - 1, argv + 1);
        else if (cmd == "sim")
            code = cmdSim(argc - 1, argv + 1);
        else if (cmd == "usecases")
            code = cmdUsecases(argc - 1, argv + 1);
        else if (cmd == "ert")
            code = cmdErt(argc - 1, argv + 1);
        else if (cmd == "balance")
            code = cmdBalance(argc - 1, argv + 1);
        else if (cmd == "advise")
            code = cmdAdvise(argc - 1, argv + 1);
        else if (cmd == "sensitivity")
            code = cmdSensitivity(argc - 1, argv + 1);
        else if (cmd == "robust")
            code = cmdRobust(argc - 1, argv + 1);
        else if (cmd == "pipeline")
            code = cmdPipeline(argc - 1, argv + 1);
        else if (cmd == "explore")
            code = cmdExplore(argc - 1, argv + 1);
        else if (cmd == "provision")
            code = cmdProvision(argc - 1, argv + 1);
        else if (cmd == "report")
            code = cmdReport(argc - 1, argv + 1);
        else if (cmd == "replay")
            code = cmdReplay(argc - 1, argv + 1);
        else if (cmd == "serve")
            code = cmdServe(argc - 1, argv + 1);
        else if (cmd == "validate")
            code = cmdValidate(argc - 1, argv + 1);
        else if (cmd == "glossary")
            code = cmdGlossary(argc - 1, argv + 1);
        else if (cmd == "--help" || cmd == "help") {
            usage(std::cout);
            code = kExitOk;
        } else
            known = false;
    } catch (const gables::ConfigError &err) {
        // The what() already carries the file:line location.
        std::cerr << "gables: " << err.what() << '\n';
        return kExitError;
    } catch (const gables::FatalError &err) {
        std::cerr << "gables: error: " << err.what() << '\n';
        return kExitError;
    }
    if (!known) {
        std::cerr << "gables: unknown command '" << cmd << "'"
                  << gables::didYouMean(
                         cmd, {"eval", "sweep", "sim", "usecases",
                               "ert", "balance", "advise",
                               "sensitivity", "robust", "pipeline",
                               "explore", "provision", "report",
                               "replay", "serve", "validate",
                               "glossary", "help"})
                  << '\n';
        usage(std::cerr);
        return kExitUsage;
    }
    return code;
}

int
runCommand(const std::vector<std::string> &argv)
{
    std::vector<const char *> raw;
    raw.reserve(argv.size());
    for (const std::string &arg : argv)
        raw.push_back(arg.c_str());
    return runCommand(static_cast<int>(raw.size()), raw.data());
}

} // namespace cli
} // namespace gables
