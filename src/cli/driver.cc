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
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
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
#include "replay/session.h"
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

/** Print @p msg and the usage text on stderr; @return kExitUsage. */
int
usageError(const ArgParser &args, const std::string &msg)
{
    std::cerr << msg << '\n' << args.usage();
    return kExitUsage;
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
    long jobs = args.getInt("jobs");
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
 * The record/replay Session of the running command (nullptr for a
 * plain run). runCommand() sets it for the command's duration; the
 * three I/O functions below are the only code that reads it.
 */
replay::Session *g_session = nullptr;

/**
 * Where the artifact given as @p path lands: @p path itself, or
 * under the session's artifactDir when it has one. An absolute path
 * is re-rooted under it and a path that climbs out of it is refused.
 */
std::string
artifactPath(const std::string &path)
{
    if (g_session == nullptr || g_session->artifactDir.empty())
        return path;
    const std::string &dir = g_session->artifactDir;
    std::filesystem::path rel =
        std::filesystem::path(path).relative_path().lexically_normal();
    if (!rel.empty() && *rel.begin() == "..")
        fatal("artifact path '" + path + "' climbs out of the out-dir '" +
              dir + "'");
    std::filesystem::path rooted = std::filesystem::path(dir) / rel;
    std::error_code ec;
    std::filesystem::create_directories(rooted.parent_path(), ec);
    // A failed mkdir surfaces as writeFileAtomic's open error, with
    // the rooted path in the message.
    return rooted.string();
}

/**
 * Write one CLI artifact atomically (see artifactPath() for where it
 * lands), then announce it as "wrote PATH<note>" with the path as
 * given.
 */
void
writeArtifact(const std::string &path, const std::string &text,
              const std::string &note = "")
{
    {
        GABLES_SPAN("output.write");
        writeFileAtomic(artifactPath(path), text);
    }
    std::cout << "wrote " << path << note << '\n';
}

/**
 * Finish a run report: attach the command's stats @p reg and the
 * active span tracer (nullptr when --profile is off, so the bytes are
 * unchanged), and write it to @p path.
 */
void
writeReport(telemetry::RunReport &report,
            const telemetry::StatsRegistry &reg, const std::string &path)
{
    report.setRegistry(&reg);
    report.setProfile(telemetry::SpanTracer::active());
    std::ostringstream out;
    {
        GABLES_SPAN("output.report");
        report.write(out);
    }
    std::string text = std::move(out).str();
    if (g_session != nullptr)
        g_session->report = text;
    writeArtifact(path, text);
}

/**
 * Load the config file at @p path: from the session's configFiles
 * when it holds the path, else from disk. A session keeps the bytes
 * it read before they are parsed, so a bundle inlines even a file
 * that fails to parse.
 */
SocConfig
loadConfig(const std::string &path)
{
    if (g_session == nullptr)
        return loadSocConfig(path);
    GABLES_SPAN("config.load");
    auto it = g_session->configFiles.find(path);
    if (it == g_session->configFiles.end())
        it = g_session->configFiles.emplace(path, readConfigFile(path))
                 .first;
    return parseSocConfig(it->second, path);
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

/**
 * Declare the model inputs of the paper's Table II on a model
 * command: the catalog --soc and the work split --f, --i0, --i1 over
 * its first two IPs. Commands differ only in the defaults.
 */
void
addModelOptions(ArgParser &args, const std::string &soc,
                const std::string &i1 = "8")
{
    args.addOption("soc", "catalog SoC name", soc);
    args.addDoubleOption("f", "fraction of work at IP[1]", "0.75");
    args.addDoubleOption("i0", "operational intensity at IP[0]", "8");
    args.addDoubleOption("i1", "operational intensity at IP[1]", i1);
}

/** Declare --file and --usecase: model inputs from a config file. */
void
addConfigFileOptions(ArgParser &args)
{
    args.addOption("file", "config file with the SoC and usecases "
                           "(instead of --soc, --f, --i0, --i1)");
    args.addOption("usecase",
                   "usecase name from the --file config (else its "
                   "first)");
}

/**
 * Reject model flags that the chosen input source would ignore:
 * --usecase without --file, and --soc/--f/--i0/--i1 next to --file.
 * A command that did not declare --file has neither (has() is false).
 *
 * @return False after printing the usage error.
 */
bool
checkModelFlags(const ArgParser &args)
{
    std::vector<std::string> ignored;
    for (const char *name : {"soc", "f", "i0", "i1"})
        if (args.has(name))
            ignored.push_back(std::string("--") + name);
    std::string error;
    if (args.has("file") && !ignored.empty())
        error = join(ignored, ", ") + " cannot be combined with --file";
    else if (!args.has("file") && args.has("usecase"))
        error = "--usecase needs --file";
    else
        return true;
    usageError(args, args.program() + ": " + error);
    return false;
}

/**
 * The SoC/usecase pair a model command evaluates: the --file config
 * and its --usecase (else its first usecase) when --file was given,
 * else the catalog --soc with the --f/--i0/--i1 split.
 */
std::pair<SocSpec, Usecase>
modelInputs(const ArgParser &args)
{
    if (!args.has("file")) {
        SocSpec soc = SocCatalog::byName(args.getString("soc")).spec();
        double f = args.getDouble("f");
        std::vector<IpWork> work(soc.numIps(), IpWork{0.0, 1.0});
        work[0] = IpWork{1.0 - f, args.getDouble("i0")};
        if (soc.numIps() > 1)
            work[1] = IpWork{f, args.getDouble("i1")};
        return {soc, Usecase("cli", work)};
    }
    SocConfig cfg = loadConfig(args.getString("file"));
    if (cfg.usecases.empty())
        fatal("config file declares no usecases");
    return {cfg.soc, args.has("usecase")
                         ? cfg.usecase(args.getString("usecase"))
                         : cfg.usecases.front()};
}

/**
 * Echo the evaluated usecase into @p report's config: its name, the
 * command's own @p knobs, then f<i> and i<i> for every IP.
 */
void
addUsecaseConfig(
    telemetry::RunReport &report, const Usecase &usecase,
    std::initializer_list<std::pair<const char *, double>> knobs = {})
{
    report.addConfig("usecase", usecase.name());
    for (const auto &[key, value] : knobs)
        report.addConfig(key, value);
    for (size_t i = 0; i < usecase.numIps(); ++i) {
        std::string n = std::to_string(i);
        report.addConfig("f" + n, usecase.fraction(i));
        report.addConfig("i" + n, usecase.intensity(i));
    }
}

int
cmdEval(int argc, const char *const *argv)
{
    ArgParser args("gables eval",
                   "evaluate a usecase on a SoC and report the bound");
    addModelOptions(args, "paper");
    addConfigFileOptions(args);
    args.addFlag("json", "emit the result as JSON");
    args.addOption("svg", "write a scaled-roofline SVG to this path");
    args.addOption("viz-json",
                   "write the visualization JSON to this path");
    args.addFlag("ascii", "print an ASCII scaled-roofline plot");
    args.addOption("metrics",
                   "write a run-report JSON with the evaluation to "
                   "this path");
    if (!args.parse(argc, argv, std::cerr) || !checkModelFlags(args))
        return usageExit(args);
    auto [soc, usecase] = modelInputs(args);

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
        if (args.has("svg"))
            writeArtifact(args.getString("svg"), plot.renderSvg());
        if (args.has("ascii"))
            std::cout << plot.renderAscii();
    }
    if (args.has("viz-json")) {
        std::ostringstream out;
        writeVisualizationJson(out, soc, usecase);
        writeArtifact(args.getString("viz-json"), std::move(out).str());
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
        addUsecaseConfig(report, usecase);
        writeReport(report, reg, args.getString("metrics"));
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

    SocSpec soc = SocCatalog::byName(args.getString("soc")).spec();
    long n = args.getInt("points");
    if (n < 2 || n > 1000000)
        fatal("--points must be in [2, 1000000]");
    int jobs = resolveJobs(args);
    std::vector<double> fractions;
    fractions.reserve(static_cast<size_t>(n));
    for (long i = 0; i < n; ++i)
        fractions.push_back(static_cast<double>(i) / (n - 1));
    parallel::ForStats pstats;
    Series series = Sweep::mixing(soc, args.getDouble("i0"),
                                  args.getDouble("i1"), fractions, true,
                                  jobs, &pstats);

    {
        GABLES_SPAN("output.table");
        TextTable t({"f", "normalized perf"});
        for (size_t i = 0; i < series.x.size(); ++i)
            t.addRow({formatDouble(series.x[i], 4),
                      formatDouble(series.y[i], 4)});
        std::cout << t.render();
    }

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
        report.addConfig("soc", args.getString("soc"));
        report.addConfig("i0", args.getDouble("i0"));
        report.addConfig("i1", args.getDouble("i1"));
        report.addConfig("points", n);
        report.addConfig("jobs", static_cast<long>(jobs));
        writeReport(report, reg, args.getString("metrics"));
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

    std::string soc_name = args.getString("soc");
    const NamedSoc &named = SocCatalog::byName(soc_name);
    SocSpec spec = named.spec();
    std::unique_ptr<sim::SimSoc> soc =
        named.sim ? named.sim() : SocCatalog::simFromSpec(spec);

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
    job.workingSetBytes = args.getDouble("working-set");
    job.totalBytes = args.getDouble("bytes");
    job.opsPerByte = args.getDouble("intensity");
    std::vector<sim::SimSoc::JobSubmission> jobs;
    for (const std::string &e : engines)
        jobs.push_back({e, job});

    long epochs = args.getInt("epochs");
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
        std::ostringstream out;
        trace.writeChromeTrace(out);
        writeArtifact(args.getString("trace"), std::move(out).str(),
                      " (" + std::to_string(trace.events().size()) +
                          " slices, " +
                          std::to_string(trace.counterEvents().size()) +
                          " counter samples)");
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
        writeReport(report, reg, args.getString("metrics"));
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

    SocSpec soc = SocCatalog::byName(args.getString("soc")).spec();
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

    // The chips are the catalog SoCs with a calibrated simulator. Each
    // pool worker builds its own simulator, so trials run concurrently
    // without sharing mutable simulator state.
    std::string chip = args.getString("chip");
    std::vector<std::string> chips;
    ErtSweep::SocFactory make_soc;
    for (const NamedSoc &named : SocCatalog::named()) {
        if (!named.sim)
            continue;
        chips.push_back(named.name);
        if (chip == named.name)
            make_soc = named.sim;
    }
    if (!make_soc)
        fatal("unknown chip '" + chip + "'" + didYouMean(chip, chips) +
              " (try " + join(chips, " or ") + ")");
    int jobs = resolveJobs(args);
    ErtConfig config;
    config.intensities = ErtConfig::defaultIntensities();
    std::string engine = args.getString("engine");
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
        writeReport(report, reg, args.getString("metrics"));
    }
    return 0;
}

int
cmdAdvise(int argc, const char *const *argv)
{
    ArgParser args("gables advise",
                   "rank design moves for a SoC/usecase pair");
    addModelOptions(args, "paper", "0.1");
    addConfigFileOptions(args);
    args.addOption("metrics",
                   "write a run-report JSON with the ranked moves to "
                   "this path");
    if (!args.parse(argc, argv, std::cerr) || !checkModelFlags(args))
        return usageExit(args);
    auto [soc, usecase] = modelInputs(args);

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
        addUsecaseConfig(report, usecase);
        writeReport(report, reg, args.getString("metrics"));
    }
    return 0;
}

int
cmdRobust(int argc, const char *const *argv)
{
    ArgParser args("gables robust",
                   "Monte-Carlo robustness of a usecase estimate");
    addModelOptions(args, "paper-balanced");
    args.addIntOption("samples", "Monte-Carlo samples", "1000");
    args.addDoubleOption("target", "ops/s target (0 = none)", "0");
    args.addIntOption("seed", "RNG seed (runs are deterministic "
                              "for a given seed)",
                      "1");
    args.addOption("metrics",
                   "write a run-report JSON with the estimate "
                   "distribution to this path");
    if (!args.parse(argc, argv, std::cerr) || !checkModelFlags(args))
        return usageExit(args);
    auto [soc, usecase] = modelInputs(args);

    Robustness::Options opts;
    long samples = args.getInt("samples");
    if (samples < 1 || samples > 100000000)
        fatal("--samples must be in [1, 100000000]");
    opts.samples = static_cast<int>(samples);
    opts.target = args.getDouble("target");
    long seed = args.getInt("seed");
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
        report.addConfig("f", args.getDouble("f"));
        report.addConfig("samples", samples);
        report.addConfig("target", opts.target);
        report.addConfig("seed", seed);
        writeReport(report, reg, args.getString("metrics"));
    }
    return 0;
}

int
cmdSensitivity(int argc, const char *const *argv)
{
    ArgParser args("gables sensitivity",
                   "elasticity of the attainable bound w.r.t. every "
                   "hardware and software parameter");
    addModelOptions(args, "paper");
    addConfigFileOptions(args);
    args.addDoubleOption("step", "relative probe step", "0.01");
    args.addOption("metrics",
                   "write a run-report JSON with the elasticities to "
                   "this path");
    if (!args.parse(argc, argv, std::cerr) || !checkModelFlags(args))
        return usageExit(args);
    auto [soc, usecase] = modelInputs(args);
    double step = args.getDouble("step");
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
        addUsecaseConfig(report, usecase, {{"step", step}});
        writeReport(report, reg, args.getString("metrics"));
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
    if (pos.empty())
        return usageError(args, "gables report: expected 'show' or 'diff'");
    const std::string &verb = pos.front();
    if (verb == "show") {
        if (pos.size() != 2)
            return usageError(args, "gables report show: expected "
                                    "exactly one report path");
        // Malformed JSON escapes as FatalError and exits 1 through
        // the top-level handler, mirroring `gables validate`.
        showReport(pos[1], parseJson(slurpFile(pos[1])));
        return kExitOk;
    }
    if (verb == "diff") {
        if (pos.size() != 3)
            return usageError(args, "gables report diff: expected "
                                    "exactly two report paths");
        telemetry::ReportDiffOptions opts;
        opts.tolRel = args.getDouble("tol-rel");
        opts.tolAbs = args.getDouble("tol-abs");
        opts.minRatio = args.getDouble("min-ratio");
        if (opts.tolRel < 0.0 || opts.tolAbs < 0.0) {
            std::cerr << "gables report diff: --tol-rel and "
                         "--tol-abs must be >= 0\n";
            return kExitUsage;
        }
        long max_diffs = args.getInt("max-diffs");
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
    return usageError(args, "gables report: unknown action '" + verb +
                                "'" + didYouMean(verb, {"show", "diff"}));
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

    UsecaseEntry entry = UsecaseCatalog::byKey(UsecaseCatalog::all(),
                                               args.getString("usecase"));
    SocSpec soc = SocCatalog::snapdragon835Full();
    sim::PipelineSim sim(soc, entry.graph);
    sim::TraceRecorder trace;
    if (args.has("trace"))
        sim.setTraceRecorder(&trace);
    long frames = args.getInt("frames");
    if (frames < 1 || frames > 1000000)
        fatal("--frames must be in [1, 1000000]");
    sim::PipelineStats stats =
        sim.run(static_cast<int>(frames), args.getDouble("fps"));
    if (args.has("trace")) {
        std::ostringstream out;
        trace.writeChromeTrace(out);
        writeArtifact(args.getString("trace"), std::move(out).str(),
                      " (" + std::to_string(trace.events().size()) +
                          " events)");
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
    args.addFlag("no-prune",
                 "evaluate every design in the grid cross product");
    addJobsOption(args);
    if (!args.parse(argc, argv, std::cerr))
        return usageExit(args);

    SocSpec base = SocCatalog::snapdragon835Full();
    std::string name = args.getString("usecase");
    std::vector<Usecase> portfolio = {
        UsecaseCatalog::byKey(UsecaseCatalog::extended(), name)
            .graph.toUsecase(base)};

    CostModel cost;
    cost.costPerAcceleration = 1.0;
    cost.costPerBpeak = 0.5e-9;
    DesignExplorer explorer(base, portfolio, cost);
    long points = args.getInt("points");
    if (points < 1 || points > 10000)
        fatal("--points must be in [1, 10000]");
    std::vector<double> bpeaks;
    for (long i = 0; i < points; ++i)
        bpeaks.push_back(15e9 + i * 15e9);
    explorer.sweep(Param::bpeak(), bpeaks);
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
        writeReport(report, reg, args.getString("metrics"));
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
        writeReport(report, reg, args.getString("metrics"));
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
    addModelOptions(args, "paper-balanced");
    if (!args.parse(argc, argv, std::cerr) || !checkModelFlags(args))
        return usageExit(args);
    auto [soc, usecase] = modelInputs(args);

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
    if (args.positional().size() != 1)
        return usageError(args, "gables validate: expected exactly one "
                                "config file path");
    const std::string &path = args.positional().front();
    // Parse errors escape as ConfigError ("path:line: message") and
    // exit 1 through the top-level handler.
    SocConfig cfg = loadConfig(path);
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
    if (args.positional().size() != 1)
        return usageError(args, "gables replay: expected exactly one "
                                "bundle path (or a directory with --all)");

    replay::ReplayOptions opts;
    opts.saveFreshDir = args.getString("save-fresh");
    opts.artifactDir = args.getString("out-dir");
    {
        telemetry::ReportDiffOptions extra;
        telemetry::addIgnoreSpecs(extra, args.getStrings("ignore"));
        opts.extraIgnore = extra.ignore;
    }
    replay::CommandRunner runner =
        [](const std::vector<std::string> &cmd_argv,
           replay::Session &session) {
            return runCommand(cmd_argv, &session);
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
    if (!args.positional().empty())
        return usageError(args, "gables serve: unexpected positional "
                                "argument '" +
                                    args.positional().front() + "'");
    std::string socket_path = args.getString("socket");
    long port = args.getInt("port");
    if (socket_path.empty() && port < 0)
        return usageError(args,
                          "gables serve: need --socket PATH or --port N");
    if (socket_path.empty() && port > 65535)
        fatal("--port must be in [0, 65535]");
    long cache = args.getInt("cache");
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

/** One `gables` command: its name, its `gables help` line and its
 * entry point. */
struct Command {
    const char *name;
    /** Lines after the first continue under the summary column. */
    const char *summary;
    int (*run)(int argc, const char *const *argv);
};

/** Every command, in the order `gables help` lists them. */
const Command kCommands[] = {
    {"eval", "evaluate a usecase on a SoC", cmdEval},
    {"sweep", "mixing sweep over the work fraction", cmdSweep},
    {"sim",
     "simulate a SoC with telemetry (metrics JSON\n"
     "+ Perfetto trace with counter tracks)",
     cmdSim},
    {"usecases", "analyze the catalog usecases", cmdUsecases},
    {"ert", "empirical roofline on the simulated chip", cmdErt},
    {"balance", "balance report and sufficient bandwidths", cmdBalance},
    {"advise", "rank design moves (supports --file configs)", cmdAdvise},
    {"sensitivity", "parameter elasticities of the bound",
     cmdSensitivity},
    {"robust", "Monte-Carlo robustness of an estimate", cmdRobust},
    {"pipeline", "frame-pipeline simulation of a usecase", cmdPipeline},
    {"explore", "design-space exploration with Pareto output",
     cmdExplore},
    {"provision", "shrink-to-fit inverse design for the catalog",
     cmdProvision},
    {"report", "show or diff run-report JSON artifacts", cmdReport},
    {"replay", "re-run a recorded bundle and diff its RunReport",
     cmdReplay},
    {"serve",
     "evaluation daemon speaking JSON lines over\n"
     "a unix socket or loopback TCP",
     cmdServe},
    {"validate", "lint a config file without running anything",
     cmdValidate},
    {"glossary", "the Gables parameter glossary (Table II)", cmdGlossary},
};

} // namespace

namespace gables {
namespace cli {

void
usage(std::ostream &out)
{
    out << "usage: gables [--log-level L] [--profile] "
           "[--record PATH] <command> [options]\n"
           "commands:\n";
    for (const Command &c : kCommands) {
        std::string indent = "  " + padRight(c.name, 12);
        for (const std::string &line : split(c.summary, '\n')) {
            out << indent << line << '\n';
            indent = std::string(indent.size(), ' ');
        }
    }
    out << "global options:\n"
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
runCommand(int argc, const char *const *argv, replay::Session *session)
{
    if (argc < 2) {
        usage(std::cerr);
        return kExitUsage;
    }
    // `replay` re-enters here with each replayed command's session;
    // the outer one is put back however the command ends.
    struct SessionScope {
        replay::Session *outer;
        ~SessionScope() { g_session = outer; }
    } scope{std::exchange(g_session, session)};
    std::string cmd = argv[1];
    try {
        // Root span around the whole command, so the profile's top
        // level reads "gables.<cmd>" and totals track wall time.
        std::string root = "gables." + cmd;
        gables::telemetry::ScopedSpan span(root.c_str());
        std::vector<std::string> names;
        for (const Command &c : kCommands) {
            if (cmd == c.name)
                return c.run(argc - 1, argv + 1);
            names.push_back(c.name);
        }
        if (cmd == "--help" || cmd == "help") {
            usage(std::cout);
            return kExitOk;
        }
        names.push_back("help");
        std::cerr << "gables: unknown command '" << cmd << "'"
                  << gables::didYouMean(cmd, names) << '\n';
        usage(std::cerr);
        return kExitUsage;
    } catch (const gables::ConfigError &err) {
        // The what() already carries the file:line location.
        std::cerr << "gables: " << err.what() << '\n';
        return kExitError;
    } catch (const gables::FatalError &err) {
        std::cerr << "gables: error: " << err.what() << '\n';
        return kExitError;
    }
}

int
runCommand(const std::vector<std::string> &argv, replay::Session *session)
{
    std::vector<const char *> raw;
    raw.reserve(argv.size());
    for (const std::string &arg : argv)
        raw.push_back(arg.c_str());
    return runCommand(static_cast<int>(raw.size()), raw.data(), session);
}

} // namespace cli
} // namespace gables
