/**
 * @file
 * The gables end-to-end benchmark. One workload per process, driven
 * in-process through the program's public entry points:
 *
 *  - cli_sweep    `gables sweep` over 1M points with a RunReport:
 *                 output-bound (table, report, file write);
 *  - cli_compute  `gables robust`, `sim` and `ert` x3: compute-bound
 *                 (Monte-Carlo, simulator), tiny output;
 *  - serve_mix    a closed loop of one client on
 *                 serve::ServeService::handleLine over a seeded mix of
 *                 evals, config evals, sweeps, explores, advises,
 *                 stats and malformed lines.
 *
 * Without --trace the run reports the end-to-end metrics. With
 * --trace 1 it interleaves untraced passes, passes under an active
 * telemetry::SpanTracer (the program's own spans), and passes that
 * call each layer's public function under the benchmark's own spans;
 * it reports the per-layer metrics and the tracing overhead.
 *
 * Output: a metric table, one detail JSON line (provenance, checks,
 * every metric with null for what was not measured), and as the last
 * line the result object {"correct", "attempted", "failed", "metrics"}.
 * See README.md in this directory.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "analysis/explorer.h"
#include "analysis/robustness.h"
#include "analysis/sweep.h"
#include "build_info.h"
#include "cli/driver.h"
#include "core/gables.h"
#include "ert/ert.h"
#include "ert/fitter.h"
#include "harness.h"
#include "serve/cache.h"
#include "serve/service.h"
#include "sim/soc.h"
#include "soc/catalog.h"
#include "soc/config.h"
#include "telemetry/report.h"
#include "telemetry/span.h"
#include "telemetry/stats.h"
#include "util/atomic_file.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace gables;
using Clock = std::chrono::steady_clock;
using e2e::Digest;
using e2e::median;
using e2e::Tally;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- metrics

struct MetricDef {
    const char *name;
    const char *unit;
    const char *better;
};

const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s", "lower"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"req_per_s", "1/s", "higher"},
    {"req_p50_us", "us", "lower"},
    {"req_p99_us", "us", "lower"},
};

const std::vector<MetricDef> kPerLayer = {
    // cli_sweep
    {"analysis.sweep_s", "s", "lower"},
    {"util.table_s", "s", "lower"},
    {"telemetry.report_s", "s", "lower"},
    {"util.file_write_s", "s", "lower"},
    {"cli.unattributed_s", "s", "lower"},
    {"cli.stdout_bytes", "bytes", "lower"},
    {"cli.report_bytes", "bytes", "lower"},
    // cli_compute
    {"cli.robust_s", "s", "lower"},
    {"cli.sim_s", "s", "lower"},
    {"cli.ert_s", "s", "lower"},
    {"analysis.robust_s", "s", "lower"},
    {"sim.run_s", "s", "lower"},
    {"ert.sweep_s", "s", "lower"},
    {"sim.ns_per_event", "ns", "lower"},
    {"sim.events", "count", "lower"},
    {"sim.simulated_s", "s", "lower"},
    // serve_mix
    {"serve.eval_p50_us", "us", "lower"},
    {"serve.eval_config_p50_us", "us", "lower"},
    {"serve.sweep_p50_us", "us", "lower"},
    {"serve.explore_p50_us", "us", "lower"},
    {"serve.advise_p50_us", "us", "lower"},
    {"util.json_parse_s", "s", "lower"},
    {"serve.cache_acquire_s", "s", "lower"},
    {"soc.config_load_s", "s", "lower"},
    {"analysis.explore_s", "s", "lower"},
    {"serve.cache_hit_rate", "ratio", "higher"},
    {"serve.cache_hits", "count", "higher"},
    {"serve.cache_misses", "count", "lower"},
    {"serve.model_evals", "count", "lower"},
    {"serve.response_bytes", "bytes", "lower"},
    // every workload
    {"trace.overhead_s", "s", "lower"},
    {"trace.overhead_share", "ratio", "lower"},
};

const char *const kWorkloads[] = {"cli_sweep", "cli_compute", "serve_mix"};

/** Set-ups per run, at least, and their least total time; setup_s is
 * their median. */
constexpr size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 1.0;
/** Timed passes (iterations in trace mode) per run, at least. */
constexpr size_t kMinPasses = 3;

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".";
    std::string gitRev;
};

/** What one run measured and checked. */
struct Result {
    Tally tally;
    std::map<std::string, double> metrics;
    /** Workload facts for the detail line (counts, check values). */
    std::map<std::string, double> detail;
    /** Program span totals per traced pass, by span path. */
    std::map<std::string, double> programSpans;
    /** Seconds of every untraced pass and every set-up, in order. */
    std::vector<double> passSeconds;
    std::vector<double> setupSeconds;
};

/** Keep running passes until the budget is spent (at least
 * kMinPasses). */
class Budget
{
  public:
    explicit Budget(double seconds) : seconds_(seconds) {}

    bool more(size_t passes) const
    {
        return passes < kMinPasses || secondsSince(start_) < seconds_;
    }

  private:
    Clock::time_point start_ = Clock::now();
    double seconds_;
};

/** The untraced passes of a run: wall seconds and request latencies
 * (seconds) of each, and the reference work timed just before it. */
struct PassLog {
    std::vector<double> seconds;
    std::vector<std::vector<double>> latency;
    std::vector<double> reference;
};

/**
 * Seconds e2e::referenceWork() takes on the reference host: the
 * end-to-end times are reported at that host speed (hostSeconds()).
 */
constexpr double kReferenceSeconds = 0.07;

/** @return Seconds of one e2e::referenceWork(). */
double
referenceSeconds()
{
    static volatile uint64_t sink = 0;
    Clock::time_point t0 = Clock::now();
    sink = sink ^ e2e::referenceWork();
    return secondsSince(t0);
}

/**
 * @return @p seconds, measured right after a reference work that took
 * @p reference seconds, scaled to the reference host's speed.
 *
 * The host's speed drifts: other tenants of a shared machine slow
 * everything down for seconds to minutes. On a 4-vCPU cloud VM, ten
 * runs of one workload spread by 12-36% (quartile distance over
 * median) in median pass time, and by 5-7% in median pass time over
 * the reference time measured just before each pass.
 */
double
hostSeconds(double seconds, double reference)
{
    return seconds * kReferenceSeconds / reference;
}

/**
 * Fill wall_s and the request metrics: each pass's time, request rate
 * and latency percentiles at reference-host speed, median over the
 * passes. The raw figures go to the detail line.
 */
void
passMetrics(Result &res, const PassLog &log)
{
    std::vector<double> wall, rate, p50, p99;
    for (size_t i = 0; i < log.seconds.size(); ++i) {
        const double ref = log.reference[i];
        std::vector<double> us;
        for (double s : log.latency[i])
            us.push_back(s * 1e6);
        wall.push_back(hostSeconds(log.seconds[i], ref));
        rate.push_back(static_cast<double>(us.size()) / wall.back());
        p50.push_back(hostSeconds(e2e::percentile(us, 0.50), ref));
        p99.push_back(hostSeconds(e2e::percentile(us, 0.99), ref));
    }
    res.passSeconds = log.seconds;
    res.metrics["wall_s"] = median(wall);
    res.metrics["req_per_s"] = median(rate);
    res.metrics["req_p50_us"] = median(p50);
    res.metrics["req_p99_us"] = median(p99);
    res.detail["requests_per_pass"] =
        static_cast<double>(log.latency.front().size());
    res.detail["raw_wall_s"] = median(log.seconds);
    res.detail["reference_s"] = median(log.reference);
}

/** Run @p once (which returns the seconds it timed) at least
 * kMinSetups times and for kMinSetupSeconds, each right after a
 * reference work; setup_s is their median at reference-host speed. */
template <typename SetupOnce>
void
repeatSetup(Result &res, SetupOnce &&once)
{
    double total = 0.0;
    std::vector<double> scaled;
    while (res.setupSeconds.size() < kMinSetups || total < kMinSetupSeconds) {
        double ref = referenceSeconds();
        res.setupSeconds.push_back(once(res.setupSeconds.size()));
        total += ref + res.setupSeconds.back();
        scaled.push_back(hostSeconds(res.setupSeconds.back(), ref));
    }
    res.metrics["setup_s"] = median(scaled);
    res.detail["raw_setup_s"] = median(res.setupSeconds);
}

// ---------------------------------------------------------------- tracing

/** Installs a fresh SpanTracer for one pass. */
class TracedPass
{
  public:
    TracedPass() { telemetry::SpanTracer::setActive(&tracer_); }
    ~TracedPass() { telemetry::SpanTracer::setActive(nullptr); }
    TracedPass(const TracedPass &) = delete;
    TracedPass &operator=(const TracedPass &) = delete;

    telemetry::ProfileNode snapshot() const { return tracer_.snapshot(); }

  private:
    telemetry::SpanTracer tracer_;
};

/** @return Total seconds of the top-level span named @p name. */
double
spanSeconds(const telemetry::ProfileNode &root, const std::string &name)
{
    double total = 0.0;
    for (const telemetry::ProfileNode &child : root.children)
        if (child.name == name)
            total += child.totalSeconds;
    return total;
}

/** Add every span's total, keyed by its dotted path, to @p out. */
void
addSpans(const telemetry::ProfileNode &node, const std::string &prefix,
         std::map<std::string, double> &out)
{
    for (const telemetry::ProfileNode &child : node.children) {
        std::string path =
            prefix.empty() ? child.name : prefix + "/" + child.name;
        out[path] += child.totalSeconds;
        addSpans(child, path, out);
    }
}

/** Per-layer samples, one per traced iteration. */
using LayerSamples = std::map<std::string, std::vector<double>>;

/** Report each layer time, in raw host seconds, as its best (least
 * disturbed) iteration. */
void
reportLayerTimes(Result &res, const LayerSamples &samples)
{
    for (const auto &[name, values] : samples)
        res.metrics[name] = e2e::percentile(values, 0.0);
}

/** Report each per-pass count as its median over iterations. */
void
reportLayerCounts(Result &res, const LayerSamples &samples)
{
    for (const auto &[name, values] : samples)
        res.metrics[name] = median(values);
}

void
reportOverhead(Result &res, const std::vector<double> &untraced,
               const std::vector<double> &traced)
{
    res.passSeconds = untraced;
    // Least disturbed against least disturbed, like the layer times.
    double base = e2e::percentile(untraced, 0.0);
    double over = e2e::percentile(traced, 0.0) - base;
    res.metrics["trace.overhead_s"] = over;
    res.metrics["trace.overhead_share"] = over / base;
    res.detail["untraced_pass_s"] = base;
}

/** Divide accumulated program span totals by the traced pass count. */
void
averageSpans(Result &res, size_t tracedPasses)
{
    for (auto &[path, total] : res.programSpans)
        total /= static_cast<double>(tracedPasses);
}

// -------------------------------------------------------------- CLI runs

struct CommandRun {
    int code = 0;
    double seconds = 0.0;
    Digest out;
    std::vector<std::string> kept;
};

/** Routes std::cout/std::cerr into digest sinks while alive. */
class CaptureStreams
{
  public:
    CaptureStreams(std::streambuf *out, std::streambuf *err)
        : oldOut_(std::cout.rdbuf(out)), oldErr_(std::cerr.rdbuf(err))
    {}
    ~CaptureStreams()
    {
        std::cout.rdbuf(oldOut_);
        std::cerr.rdbuf(oldErr_);
    }
    CaptureStreams(const CaptureStreams &) = delete;
    CaptureStreams &operator=(const CaptureStreams &) = delete;

  private:
    std::streambuf *oldOut_;
    std::streambuf *oldErr_;
};

/**
 * Run one gables invocation through cli::runCommand with stdout going
 * to a digest sink (not a growing string, so the capture adds no
 * memory), keeping the stdout lines listed in @p keep.
 */
CommandRun
runCli(const std::vector<std::string> &argv, std::set<uint64_t> keep = {})
{
    e2e::DigestBuf out(std::move(keep));
    e2e::DigestBuf err;
    CommandRun run;
    {
        CaptureStreams capture(&out, &err);
        Clock::time_point t0 = Clock::now();
        run.code = cli::runCommand(argv);
        run.seconds = secondsSince(t0);
    }
    run.out = out.digest();
    run.kept = out.keptLines();
    return run;
}

std::set<uint64_t>
firstLines(uint64_t n)
{
    std::set<uint64_t> lines;
    for (uint64_t i = 0; i < n; ++i)
        lines.insert(i);
    return lines;
}

std::string
commandName(const std::vector<std::string> &argv)
{
    std::string name = argv[1];
    if (argv.size() > 3 && argv[2] == "--engine")
        name += " " + argv[3];
    return name;
}

/** @return The trimmed cells of a rendered TextTable row. */
std::vector<std::string>
tableCells(const std::string &row)
{
    std::vector<std::string> cells;
    for (const std::string &cell : split(row, '|'))
        cells.push_back(trim(cell));
    return cells;
}

// ------------------------------------------------------------- cli_sweep

/** Members of a sweep RunReport that hold wall-clock readings. */
const std::set<std::string> kVolatileReportKeys = {
    "profile", "parallel.worker_busy_s"};

/** The Sweep::mixing usecase for fraction @p f (its oracle twin). */
Usecase
mixingUsecase(const SocSpec &soc, double i0, double i1, double f)
{
    std::vector<IpWork> work(soc.numIps(), IpWork{0.0, 1.0});
    work[0] = IpWork{1.0 - f, i0};
    work[1] = IpWork{f, i1};
    return Usecase("mixing", std::move(work));
}

/** Check the captured sample rows against GablesModel::evaluate. */
void
checkSweepRows(Tally &tally, const e2e::SweepInputs &in,
               const std::vector<std::string> &rows)
{
    tally.check(rows.size() == in.sampleRows.size(),
                "sweep sample rows captured");
    SocSpec soc = SocCatalog::snapdragon835();
    double base =
        GablesModel::evaluate(soc, mixingUsecase(soc, in.i0, in.i1, 0.0))
            .attainable;
    for (size_t k = 0; k < rows.size() && k < in.sampleRows.size(); ++k) {
        double f = static_cast<double>(in.sampleRows[k]) /
                   static_cast<double>(e2e::kSweepPoints - 1);
        double y =
            GablesModel::evaluate(soc, mixingUsecase(soc, in.i0, in.i1, f))
                .attainable /
            base;
        std::vector<std::string> cells = tableCells(rows[k]);
        tally.check(cells.size() == 2 && cells[0] == formatDouble(f, 4) &&
                        cells[1] == formatDouble(y, 4),
                    "sweep row " + std::to_string(in.sampleRows[k]) +
                        " '" + rows[k] + "' matches the model oracle");
    }
}

/**
 * Recompose one `gables sweep --metrics` from the public calls it is
 * made of, each under a benchmark span. @return The stdout it would
 * print; the report lands at @p path like the command's.
 */
Digest
recomposeSweep(const e2e::SweepInputs &in, const std::string &path)
{
    SocSpec soc = SocCatalog::snapdragon835();
    const long n = e2e::kSweepPoints;
    std::vector<double> fractions;
    fractions.reserve(static_cast<size_t>(n));
    for (long i = 0; i < n; ++i)
        fractions.push_back(static_cast<double>(i) / (n - 1));
    parallel::ForStats pstats;
    Series series;
    {
        GABLES_SPAN("bench.analysis.sweep");
        series =
            Sweep::mixing(soc, in.i0, in.i1, fractions, true, 1, &pstats);
    }
    // Like the command's, the table lives until the end, so freeing its
    // rows is not part of the table layer.
    TextTable t({"f", "normalized perf"});
    std::string table;
    {
        GABLES_SPAN("bench.util.table");
        for (size_t i = 0; i < series.x.size(); ++i)
            t.addRow({formatDouble(series.x[i], 4),
                      formatDouble(series.y[i], 4)});
        table = t.render();
    }
    Digest out;
    out.add(table.data(), table.size());
    std::string wrote = "wrote " + path + "\n";
    out.add(wrote.data(), wrote.size());

    telemetry::StatsRegistry reg;
    telemetry::TimeSeries &ts = reg.timeSeries(
        "mixing.normalized_perf",
        "normalized attainable vs fraction f at IP[1]");
    for (size_t i = 0; i < series.x.size(); ++i)
        ts.sample(series.x[i], series.y[i]);
    reg.counter("model.evals",
                "Gables model evaluations performed by the sweep")
        .add(static_cast<double>(n + 1));
    reg.counter("parallel.workers",
                "worker-pool size used for the grid evaluation")
        .add(pstats.workers);
    telemetry::Distribution &busy = reg.distribution(
        "parallel.worker_busy_s",
        "wall-clock seconds each worker spent inside the grid body");
    for (double b : pstats.busySeconds)
        busy.sample(b);
    telemetry::RunReport report("gables sweep", soc.name());
    report.addConfig("soc", std::string("sd835"));
    report.addConfig("i0", in.i0);
    report.addConfig("i1", in.i1);
    report.addConfig("points", n);
    report.addConfig("jobs", 1L);
    report.setRegistry(&reg);
    std::string json;
    {
        GABLES_SPAN("bench.telemetry.report");
        std::ostringstream os;
        report.write(os);
        json = os.str();
    }
    {
        GABLES_SPAN("bench.util.file_write");
        writeFileAtomic(path, json);
    }
    return out;
}

Result
runCliSweep(const Options &opt)
{
    Result res;
    const std::string path = opt.workdir + "/sweep-report.json";
    e2e::SweepInputs in;
    std::vector<std::string> argv;
    Digest refOut, refReport;
    repeatSetup(res, [&](size_t rep) {
        // Set-up: input generation and one cold pass, which is also
        // the reference the timed passes must reproduce.
        Clock::time_point t0 = Clock::now();
        in = e2e::makeSweepInputs(opt.seed);
        argv = e2e::sweepArgv(in, path);
        std::set<uint64_t> keep;
        for (uint64_t row : in.sampleRows)
            keep.insert(row + 2); // after the header and the rule
        CommandRun warm = runCli(argv, std::move(keep));
        double seconds = secondsSince(t0);
        res.tally.operation(warm.code == 0, "warm-up sweep");
        Digest report = e2e::digestJsonFile(path, kVolatileReportKeys);
        if (rep == 0) {
            refOut = warm.out;
            refReport = report;
            checkSweepRows(res.tally, in, warm.kept);
        } else {
            res.tally.check(warm.out == refOut && report == refReport,
                            "sweep output repeats across set-ups");
        }
        return seconds;
    });
    res.detail["i0"] = in.i0;
    res.detail["i1"] = in.i1;

    auto timedPass = [&](std::vector<double> &into) {
        CommandRun run = runCli(argv);
        res.tally.operation(run.code == 0, "sweep");
        into.push_back(run.seconds);
        res.tally.check(run.out == refOut, "sweep stdout repeats");
        res.tally.check(e2e::digestJsonFile(path, kVolatileReportKeys) ==
                            refReport,
                        "sweep report repeats");
    };

    std::vector<double> untraced, traced, reference;
    LayerSamples layers;
    Budget budget(opt.seconds);
    while (budget.more(untraced.size())) {
        reference.push_back(referenceSeconds());
        timedPass(untraced);
        if (!opt.trace)
            continue;
        {
            TracedPass tp;
            timedPass(traced);
            addSpans(tp.snapshot(), "", res.programSpans);
        }
        TracedPass tp;
        Digest out = recomposeSweep(in, path);
        res.tally.check(out == refOut,
                        "recomposed stdout matches the command's");
        res.tally.check(e2e::digestJsonFile(path, kVolatileReportKeys) ==
                            refReport,
                        "recomposed report matches the command's");
        telemetry::ProfileNode root = tp.snapshot();
        for (const auto &[metric, span] :
             std::vector<std::pair<std::string, std::string>>{
                 {"analysis.sweep_s", "bench.analysis.sweep"},
                 {"util.table_s", "bench.util.table"},
                 {"telemetry.report_s", "bench.telemetry.report"},
                 {"util.file_write_s", "bench.util.file_write"}})
            layers[metric].push_back(spanSeconds(root, span));
    }
    std::remove(path.c_str());

    if (opt.trace) {
        reportLayerTimes(res, layers);
        // The rest of the best traced command, so the named layers and
        // this add up to wall_s plus trace.overhead_s.
        double named = 0.0;
        for (const auto &[metric, samples] : layers)
            named += res.metrics[metric];
        res.metrics["cli.unattributed_s"] =
            e2e::percentile(traced, 0.0) - named;
        reportOverhead(res, untraced, traced);
        averageSpans(res, traced.size());
        res.metrics["cli.stdout_bytes"] = static_cast<double>(refOut.bytes);
        res.metrics["cli.report_bytes"] =
            static_cast<double>(refReport.bytes);
        return res;
    }
    PassLog log; // one request per pass
    log.reference = reference;
    for (double s : untraced) {
        log.seconds.push_back(s);
        log.latency.push_back({s});
    }
    passMetrics(res, log);
    return res;
}

// ----------------------------------------------------------- cli_compute

/** The paper's measured rooflines the simulated chip is calibrated
 * to (Figures 7 and 9). */
struct PaperRoofline {
    const char *engine;
    double peakOps;
    double peakBw;
};
const PaperRoofline kPaperRooflines[] = {
    {"CPU", SocCatalog::kCpuPeakOps, SocCatalog::kCpuStreamBw},
    {"GPU", SocCatalog::kGpuPeakOps, SocCatalog::kGpuStreamBw},
    {"DSP", SocCatalog::kDspPeakOps, SocCatalog::kDspStreamBw},
};
/** Tolerance of the ERT fits (as in tests/ert_test.cc). */
constexpr double kErtTolerance = 0.02;

double
relErr(double got, double want)
{
    return std::abs(got - want) / want;
}

/** @return The rate after @p label in a `fit: peak X, DRAM Y, ...`
 * line, or -1 when absent. */
double
fitField(const std::string &line, const std::string &label)
{
    size_t at = line.find(label);
    if (at == std::string::npos)
        return -1.0;
    at += label.size();
    size_t end = line.find(',', at);
    try {
        return parseRate(line.substr(at, end - at));
    } catch (const FatalError &) {
        return -1.0;
    }
}

ErtConfig
ertConfig()
{
    ErtConfig config;
    config.intensities = ErtConfig::defaultIntensities();
    return config;
}

/** The SoC, usecase and options `gables robust --seed S` runs. */
struct RobustCall {
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase usecase{"cli", {IpWork{0.25, 8.0}, IpWork{0.75, 8.0}}};
    Robustness::Options options;
};

RobustCall
robustCall(const std::vector<std::string> &argv)
{
    RobustCall call;
    call.options.samples = std::stoi(argv[3]);
    call.options.seed = std::stoull(argv[5]);
    return call;
}

/** The simulation `gables sim --soc sd835 --bytes 2e9 ...` runs. */
std::vector<sim::SimSoc::JobSubmission>
simJobs()
{
    sim::KernelJob job;
    job.workingSetBytes = 2e9;
    job.totalBytes = 2e9;
    job.opsPerByte = 1.0;
    std::vector<sim::SimSoc::JobSubmission> jobs;
    SocSpec spec = SocCatalog::snapdragon835();
    for (size_t i = 0; i < spec.numIps(); ++i)
        jobs.push_back({spec.ip(i).name, job});
    return jobs;
}
constexpr int kSimEpochs = 64;

Result
runCliCompute(const Options &opt)
{
    Result res;
    std::vector<std::vector<std::string>> cmds;
    std::vector<Digest> refs;
    repeatSetup(res, [&](size_t rep) {
        Clock::time_point t0 = Clock::now();
        cmds = e2e::computeCommands(opt.seed);
        std::vector<CommandRun> warm;
        for (const auto &argv : cmds)
            warm.push_back(runCli(argv, firstLines(64)));
        double seconds = secondsSince(t0);
        for (size_t i = 0; i < cmds.size(); ++i) {
            res.tally.operation(warm[i].code == 0,
                                "warm-up " + commandName(cmds[i]));
            if (rep == 0)
                refs.push_back(warm[i].out);
            else
                res.tally.check(warm[i].out == refs[i],
                                commandName(cmds[i]) +
                                    " output repeats across set-ups");
        }
        if (rep != 0)
            return seconds;
        // The CLI's printed fits, against the paper within 2%.
        for (size_t e = 0; e < 3; ++e) {
            const PaperRoofline &paper = kPaperRooflines[e];
            const std::vector<std::string> &lines = warm[2 + e].kept;
            std::string fit = lines.empty() ? "" : lines.back();
            double ops = fitField(fit, "peak ");
            double bw = fitField(fit, "DRAM ");
            res.tally.check(
                ops > 0 && bw > 0 &&
                    relErr(ops, paper.peakOps) <= kErtTolerance &&
                    relErr(bw, paper.peakBw) <= kErtTolerance,
                std::string("ert ") + paper.engine + " fit '" + fit +
                    "' within 2% of the paper");
        }
        // The printed sim and robust summaries, against the same
        // public calls.
        auto soc = SocCatalog::snapdragon835Sim();
        telemetry::StatsRegistry reg;
        soc->attachTelemetry(&reg);
        sim::SocRunStats stats = soc->run(simJobs(), kSimEpochs);
        std::string simLine =
            soc->name() + ": " + formatDouble(stats.duration * 1e3, 3) +
            " ms simulated, aggregate " +
            formatOpsRate(stats.aggregateOpsRate());
        res.tally.check(!warm[1].kept.empty() && warm[1].kept[0] == simLine,
                        "sim summary matches SimSoc::run");
        RobustCall rc = robustCall(cmds[0]);
        RobustnessReport r =
            Robustness::analyze(rc.soc, rc.usecase, rc.options);
        res.tally.check(warm[0].kept.size() > 1 &&
                            warm[0].kept[1] ==
                                "mean:    " + formatOpsRate(r.mean),
                        "robust mean matches Robustness::analyze");
        return seconds;
    });

    // The exact fit error of the three rooflines (0 when the
    // simulator reproduces the paper exactly).
    double fitErr = 0.0;
    for (const PaperRoofline &paper : kPaperRooflines) {
        RooflineFit fit = RooflineFitter::fitDram(ErtSweep::run(
            [] { return SocCatalog::snapdragon835Sim(); }, paper.engine,
            ertConfig(), 1));
        fitErr = std::max({fitErr, relErr(fit.peakOps, paper.peakOps),
                           relErr(fit.peakBw, paper.peakBw)});
    }
    res.tally.check(fitErr <= kErtTolerance, "ERT fit error within 2%");
    res.detail["ert_fit_err"] = fitErr;

    // One pass; @return each command's seconds.
    auto timedPass = [&] {
        std::vector<double> seconds;
        for (size_t i = 0; i < cmds.size(); ++i) {
            CommandRun run = runCli(cmds[i]);
            res.tally.operation(run.code == 0, commandName(cmds[i]));
            res.tally.check(run.out == refs[i],
                            commandName(cmds[i]) + " output repeats");
            seconds.push_back(run.seconds);
        }
        return seconds;
    };
    auto total = [](const std::vector<double> &v) {
        double s = 0.0;
        for (double x : v)
            s += x;
        return s;
    };

    PassLog log;
    std::vector<double> traced;
    LayerSamples layers;
    uint64_t simEvents = 0;
    double simulated = 0.0;
    Budget budget(opt.seconds);
    while (budget.more(log.seconds.size())) {
        log.reference.push_back(referenceSeconds());
        log.latency.push_back(timedPass());
        log.seconds.push_back(total(log.latency.back()));
        if (!opt.trace)
            continue;
        std::vector<double> perCommand;
        {
            TracedPass tp;
            perCommand = timedPass();
            traced.push_back(total(perCommand));
            addSpans(tp.snapshot(), "", res.programSpans);
        }
        layers["cli.robust_s"].push_back(perCommand[0]);
        layers["cli.sim_s"].push_back(perCommand[1]);
        layers["cli.ert_s"].push_back(perCommand[2] + perCommand[3] +
                                      perCommand[4]);

        TracedPass tp;
        RobustCall rc = robustCall(cmds[0]);
        {
            GABLES_SPAN("bench.analysis.robust");
            Robustness::analyze(rc.soc, rc.usecase, rc.options);
        }
        auto soc = SocCatalog::snapdragon835Sim();
        telemetry::StatsRegistry reg;
        soc->attachTelemetry(&reg);
        sim::SocRunStats stats;
        {
            GABLES_SPAN("bench.sim.run");
            stats = soc->run(simJobs(), kSimEpochs);
        }
        for (const PaperRoofline &paper : kPaperRooflines) {
            GABLES_SPAN("bench.ert.sweep");
            ErtSweep::run([] { return SocCatalog::snapdragon835Sim(); },
                          paper.engine, ertConfig(), 1);
        }
        const telemetry::Counter *events =
            reg.findCounter("sim.events_executed");
        uint64_t ev = events ? static_cast<uint64_t>(events->value()) : 0;
        res.tally.check(ev > 0, "simulator counts its events");
        if (layers["sim.run_s"].empty()) {
            simEvents = ev;
            simulated = stats.duration;
        }
        res.tally.check(ev == simEvents && stats.duration == simulated,
                        "simulator event count and duration repeat");
        telemetry::ProfileNode root = tp.snapshot();
        double simRun = spanSeconds(root, "bench.sim.run");
        layers["analysis.robust_s"].push_back(
            spanSeconds(root, "bench.analysis.robust"));
        layers["sim.run_s"].push_back(simRun);
        layers["ert.sweep_s"].push_back(spanSeconds(root, "bench.ert.sweep"));
        layers["sim.ns_per_event"].push_back(
            ev > 0 ? simRun * 1e9 / static_cast<double>(ev) : 0.0);
    }

    if (opt.trace) {
        reportLayerTimes(res, layers);
        reportOverhead(res, log.seconds, traced);
        averageSpans(res, traced.size());
        res.metrics["sim.events"] = static_cast<double>(simEvents);
        res.metrics["sim.simulated_s"] = simulated;
        uint64_t bytes = 0;
        for (const Digest &d : refs)
            bytes += d.bytes;
        res.metrics["cli.stdout_bytes"] = static_cast<double>(bytes);
        return res;
    }
    passMetrics(res, log);
    return res;
}

// ------------------------------------------------------------- serve_mix

/** The INI configs config-path evals name, relative to the checkout
 * root the benchmark runs from. */
const char *const kConfigPaths[] = {"configs/paper_two_ip.ini",
                                    "configs/snapdragon835.ini"};

/** The serve workload's inputs, expected results and service. */
struct ServeSetup {
    e2e::ServeMix mix;
    std::map<std::string, SocConfig> configs;
    /** Oracle attainable per request (evals only, else 0). */
    std::vector<double> expected;
    std::unique_ptr<serve::ServeService> service;
};

std::unique_ptr<ServeSetup>
makeServeSetup(uint64_t seed, Tally &tally)
{
    auto s = std::make_unique<ServeSetup>();
    std::vector<std::pair<std::string, std::vector<std::string>>> names;
    for (const char *path : kConfigPaths) {
        SocConfig cfg = loadSocConfig(path);
        std::vector<std::string> usecases;
        for (const Usecase &u : cfg.usecases)
            usecases.push_back(u.name());
        names.push_back({path, usecases});
        s->configs.emplace(path, std::move(cfg));
    }
    s->mix = e2e::makeServeMix(seed, e2e::MixShape{}, names);
    for (const e2e::ServeRequest &r : s->mix.requests) {
        double want = 0.0;
        if (r.kind == e2e::ReqKind::Eval) {
            const e2e::ModelPair &p = s->mix.pairs[r.pair];
            want = GablesModel::evaluate(p.soc, p.usecase).attainable;
        } else if (r.kind == e2e::ReqKind::EvalConfig) {
            const SocConfig &cfg = s->configs.at(r.configPath);
            want = GablesModel::evaluate(cfg.soc,
                                         cfg.usecase(r.configUsecase))
                       .attainable;
        }
        s->expected.push_back(want);
    }
    serve::ServeOptions options;
    options.jobs = 1;
    s->service = std::make_unique<serve::ServeService>(options);
    // Warm the evaluator cache with the hot pairs.
    for (size_t h = 0; h < s->mix.hotPairs; ++h)
        tally.operation(
            e2e::responseMatches(s->service->handleLine(e2e::evalLine(
                                     s->mix.pairs[h], -1 - long(h))),
                                 ""),
            "warm-up eval");
    return s;
}

/** One closed-loop pass: latencies and responses per request. */
struct ServePass {
    double seconds = 0.0;
    std::vector<double> latency;
    std::vector<std::string> responses;
};

ServePass
servePass(serve::ServeService &service, const e2e::ServeMix &mix)
{
    ServePass pass;
    // The service logs every rejected request to stderr.
    e2e::DigestBuf log;
    CaptureStreams capture(std::cout.rdbuf(), &log);
    const size_t n = mix.requests.size();
    pass.latency.resize(n);
    pass.responses.resize(n);
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
        Clock::time_point r0 = Clock::now();
        pass.responses[i] = service.handleLine(mix.requests[i].line);
        pass.latency[i] = secondsSince(r0);
    }
    pass.seconds = secondsSince(t0);
    return pass;
}

/** @return attainable of @p pair with one sweep axis set to @p v. */
double
sweepOracle(const e2e::ModelPair &pair, const e2e::ServeRequest &r,
            double v)
{
    if (r.axis == "bpeak") {
        SocSpec soc(pair.soc.name(), pair.soc.ppeak(), v, pair.soc.ips());
        return GablesModel::evaluate(soc, pair.usecase).attainable;
    }
    std::vector<IpWork> work = pair.usecase.work();
    work[r.ip].intensity = v;
    return GablesModel::evaluate(pair.soc,
                                 Usecase(pair.usecase.name(), work))
        .attainable;
}

/** Check one pass's responses; @p deep also re-derives grid results. */
void
checkServePass(Tally &tally, const ServeSetup &s, const ServePass &pass,
               bool deep)
{
    for (size_t i = 0; i < pass.responses.size(); ++i) {
        const e2e::ServeRequest &r = s.mix.requests[i];
        const std::string &resp = pass.responses[i];
        const std::string excerpt = ": " + resp.substr(0, 160);
        tally.operation(e2e::responseMatches(resp, r.expectError),
                        std::string(e2e::label(r.kind)) + " request " +
                            std::to_string(i + 1) + excerpt);
        if (r.kind == e2e::ReqKind::Eval ||
            r.kind == e2e::ReqKind::EvalConfig) {
            double got = 0.0;
            tally.check(e2e::numberAfter(resp, "attainable_ops_per_sec",
                                         &got) &&
                            got == s.expected[i],
                        "eval " + std::to_string(i + 1) +
                            " is bit-exact against the model oracle (" +
                            formatDouble(s.expected[i], 1) + ")" + excerpt);
        }
        if (!deep || (r.kind != e2e::ReqKind::Sweep &&
                      r.kind != e2e::ReqKind::Explore))
            continue;
        JsonValue doc = parseJson(resp);
        const JsonValue &result = doc.at("result");
        if (r.kind == e2e::ReqKind::Explore) {
            tally.check(result.at("grid_size").asNumber() ==
                                static_cast<double>(r.gridPoints) &&
                            result.at("frontier").size() > 0,
                        "explore grid size and frontier");
            continue;
        }
        const JsonValue &att = result.at("attainable_ops_per_sec");
        bool ok = att.size() == r.values.size();
        for (size_t k = 0; ok && k < r.values.size(); k += 1021)
            ok = att.at(k).asNumber() ==
                 sweepOracle(s.mix.pairs[r.pair], r, r.values[k]);
        tally.check(ok, "sweep " + std::to_string(i + 1) +
                            " points match the model oracle");
    }
}

double
statsCounter(serve::ServeService &service, const std::string &name)
{
    JsonValue doc = parseJson(service.statsReportJson());
    const JsonValue &stats = doc.at("stats");
    return stats.has(name) ? stats.at(name).at("value").asNumber() : 0.0;
}

/** The layers under one serve pass, each public call under a span. */
void
recomposeServe(const ServeSetup &s)
{
    const e2e::ServeMix &mix = s.mix;
    e2e::DigestBuf log;
    CaptureStreams capture(std::cout.rdbuf(), &log);
    {
        GABLES_SPAN("bench.util.json_parse");
        for (const e2e::ServeRequest &r : mix.requests) {
            try {
                parseJson(r.line);
            } catch (const FatalError &) {
            }
        }
    }
    serve::EvaluatorCache cache(serve::ServeOptions{}.cacheCapacity);
    for (size_t h = 0; h < mix.hotPairs; ++h)
        cache.acquire(mix.pairs[h].soc, mix.pairs[h].usecase);
    {
        GABLES_SPAN("bench.serve.cache_acquire");
        for (const e2e::ServeRequest &r : mix.requests) {
            if (r.kind == e2e::ReqKind::Eval ||
                r.kind == e2e::ReqKind::Sweep) {
                cache.acquire(mix.pairs[r.pair].soc,
                              mix.pairs[r.pair].usecase);
            } else if (r.kind == e2e::ReqKind::EvalConfig) {
                const SocConfig &cfg = s.configs.at(r.configPath);
                cache.acquire(cfg.soc, cfg.usecase(r.configUsecase));
            }
        }
    }
    {
        GABLES_SPAN("bench.soc.config_load");
        for (const e2e::ServeRequest &r : mix.requests)
            if (r.kind == e2e::ReqKind::EvalConfig)
                loadSocConfig(r.configPath);
    }
    GABLES_SPAN("bench.analysis.explore");
    for (const e2e::ServeRequest &r : mix.requests) {
        if (r.kind != e2e::ReqKind::Explore)
            continue;
        const e2e::ModelPair &p = mix.pairs[r.pair];
        DesignExplorer explorer(p.soc, {p.usecase}, e2e::kExploreCost);
        for (const e2e::ExploreKnob &k : r.knobs) {
            if (k.knob == "bpeak")
                explorer.sweepBpeak(k.values);
            else if (k.knob == "acceleration")
                explorer.sweepAcceleration(k.ip, k.values);
            else
                explorer.sweepIpBandwidth(k.ip, k.values);
        }
        ExploreOptions options;
        options.jobs = 1;
        explorer.exploreFrontier(options);
    }
}

Result
runServeMix(const Options &opt)
{
    Result res;
    std::unique_ptr<ServeSetup> s;
    repeatSetup(res, [&](size_t) {
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<ServeSetup> fresh = makeServeSetup(opt.seed, res.tally);
        double seconds = secondsSince(t0);
        s = std::move(fresh); // the previous set-up is freed untimed
        return seconds;
    });
    serve::ServeService &service = *s->service;

    PassLog log;
    std::vector<double> traced;
    std::map<std::string, std::vector<double>> opLatency;
    LayerSamples layers, counts;
    Budget budget(opt.seconds);
    while (budget.more(log.seconds.size())) {
        uint64_t hits0 = service.cache().hits();
        uint64_t misses0 = service.cache().misses();
        double evals0 = opt.trace ? statsCounter(service, "serve.model_evals")
                                  : 0.0;
        log.reference.push_back(referenceSeconds());
        ServePass pass = servePass(service, s->mix);
        log.seconds.push_back(pass.seconds);
        log.latency.push_back(pass.latency);
        checkServePass(res.tally, *s, pass, log.seconds.size() == 1);
        if (!opt.trace)
            continue;
        double hits = static_cast<double>(service.cache().hits() - hits0);
        double misses =
            static_cast<double>(service.cache().misses() - misses0);
        counts["serve.cache_hits"].push_back(hits);
        counts["serve.cache_misses"].push_back(misses);
        counts["serve.cache_hit_rate"].push_back(hits / (hits + misses));
        counts["serve.model_evals"].push_back(
            statsCounter(service, "serve.model_evals") - evals0);
        double bytes = 0.0;
        for (size_t i = 0; i < pass.responses.size(); ++i) {
            bytes += static_cast<double>(pass.responses[i].size());
            opLatency[e2e::label(s->mix.requests[i].kind)].push_back(
                pass.latency[i] * 1e6);
        }
        counts["serve.response_bytes"].push_back(bytes);
        {
            TracedPass tp;
            ServePass tpass = servePass(service, s->mix);
            traced.push_back(tpass.seconds);
            checkServePass(res.tally, *s, tpass, false);
            addSpans(tp.snapshot(), "", res.programSpans);
        }
        TracedPass tp;
        recomposeServe(*s);
        telemetry::ProfileNode root = tp.snapshot();
        for (const auto &[metric, span] :
             std::vector<std::pair<std::string, std::string>>{
                 {"util.json_parse_s", "bench.util.json_parse"},
                 {"serve.cache_acquire_s", "bench.serve.cache_acquire"},
                 {"soc.config_load_s", "bench.soc.config_load"},
                 {"analysis.explore_s", "bench.analysis.explore"}})
            layers[metric].push_back(spanSeconds(root, span));
    }

    if (opt.trace) {
        reportLayerTimes(res, layers);
        reportLayerCounts(res, counts);
        reportOverhead(res, log.seconds, traced);
        averageSpans(res, traced.size());
        for (const char *op :
             {"eval", "eval_config", "sweep", "explore", "advise"})
            res.metrics[std::string("serve.") + op + "_p50_us"] =
                median(opLatency[op]);
        return res;
    }
    passMetrics(res, log);
    return res;
}

// ---------------------------------------------------------------- output

std::optional<std::string>
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return std::nullopt;
    for (unsigned int i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string model = trim(brand);
    return model.empty() ? std::nullopt : std::optional(model);
#else
    return std::nullopt;
#endif
}

std::string
utcTimestamp()
{
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

void
kvOrNull(JsonWriter &json, const std::string &key,
         const std::optional<std::string> &value)
{
    json.key(key);
    if (value)
        json.value(*value);
    else
        json.valueNull();
}

void
writeProvenance(JsonWriter &json, const Options &opt, const Result &res)
{
    json.key("provenance");
    json.beginObject();
    kvOrNull(json, "git_rev",
             opt.gitRev.empty() ? std::nullopt : std::optional(opt.gitRev));
    json.kv("compiler", E2E_COMPILER);
    json.kv("build_type", E2E_BUILD_TYPE);
    json.kv("lto", E2E_LTO);
    json.kv("evaluator_flags", E2E_EVALUATOR_FLAGS);
    json.kv("options", E2E_OPTIONS);
    kvOrNull(json, "cpu_model", cpuModel());
    unsigned int nproc = std::thread::hardware_concurrency();
    json.key("nproc");
    if (nproc > 0)
        json.value(static_cast<long>(nproc));
    else
        json.valueNull();
    json.kv("reps", static_cast<long>(res.passSeconds.size()));
    json.kv("setup_reps", static_cast<long>(res.setupSeconds.size()));
    json.kv("seed", static_cast<long>(opt.seed));
    json.kv("timestamp", utcTimestamp());
    json.endObject();
}

const std::vector<MetricDef> &
modeMetrics(bool trace)
{
    return trace ? kPerLayer : kEndToEnd;
}

void
printResult(const Options &opt, const Result &res)
{
    const std::vector<MetricDef> &defs = modeMetrics(opt.trace);
    TextTable table({"metric", "value", "unit"});
    table.setAlign(0, TextTable::Align::Left);
    for (const MetricDef &m : defs) {
        auto it = res.metrics.find(m.name);
        table.addRow({m.name,
                      it == res.metrics.end() ? "-"
                                              : formatDouble(it->second, 6),
                      m.unit});
    }
    std::cout << opt.workload << (opt.trace ? " (traced)" : "")
              << ", seed " << opt.seed << ", " << res.passSeconds.size()
              << " passes\n"
              << table.render();
    for (const std::string &msg : res.tally.messages())
        std::cout << msg << '\n';

    // Detail line: everything, with null for what was not measured.
    {
        JsonWriter json(std::cout, false);
        json.beginObject();
        json.kv("workload", opt.workload);
        json.kv("trace", opt.trace);
        writeProvenance(json, opt, res);
        json.kv("error_rate", res.tally.errorRate());
        json.kv("checks_failed", static_cast<long>(res.tally.checksFailed()));
        json.key("messages");
        json.beginArray();
        for (const std::string &msg : res.tally.messages())
            json.value(msg);
        json.endArray();
        json.key("metrics");
        json.beginObject();
        for (const MetricDef &m : defs) {
            json.key(m.name);
            auto it = res.metrics.find(m.name);
            if (it == res.metrics.end())
                json.valueNull();
            else
                json.value(it->second);
        }
        json.endObject();
        json.key("detail");
        json.beginObject();
        for (const auto &[k, v] : res.detail)
            json.kv(k, v);
        json.endObject();
        for (const auto &[key, values] :
             {std::pair{"pass_s", &res.passSeconds},
              std::pair{"setup_s", &res.setupSeconds}}) {
            json.key(key);
            json.beginArray();
            for (double v : *values)
                json.value(v);
            json.endArray();
        }
        json.key("program_spans_s");
        json.beginObject();
        for (const auto &[k, v] : res.programSpans)
            json.kv(k, v);
        json.endObject();
        json.endObject();
    }
    std::cout << '\n';

    // The result line. It carries every metric of the mode as a
    // number: a layer this workload never enters reads 0 here (and
    // null in the detail line above).
    JsonWriter json(std::cout, false);
    json.beginObject();
    json.kv("correct", res.tally.correct());
    json.kv("attempted", static_cast<long>(res.tally.attempted()));
    json.kv("failed", static_cast<long>(res.tally.failed()));
    json.key("metrics");
    json.beginObject();
    for (const MetricDef &m : defs) {
        auto it = res.metrics.find(m.name);
        json.key(m.name);
        json.beginObject();
        json.kv("value", it == res.metrics.end() ? 0.0 : it->second);
        json.kv("unit", m.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    std::cout << '\n';
}

/** --list-metrics: the metric and workload tables as JSON, for
 * run.py's manifest writer. */
void
listMetrics()
{
    JsonWriter json(std::cout, false);
    json.beginObject();
    json.key("workloads");
    json.beginArray();
    for (const char *w : kWorkloads)
        json.value(w);
    json.endArray();
    for (bool trace : {false, true}) {
        json.key(trace ? "per_layer" : "end_to_end");
        json.beginArray();
        for (const MetricDef &m : modeMetrics(trace)) {
            json.beginObject();
            json.kv("name", m.name);
            json.kv("unit", m.unit);
            json.kv("better", m.better);
            json.endObject();
        }
        json.endArray();
    }
    json.endObject();
    std::cout << '\n';
}

int
usageError(const std::string &msg)
{
    std::cerr << "gables_e2e: " << msg
              << "\nusage: gables_e2e --workload W --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--git-rev REV]\n"
                 "       gables_e2e --list-metrics\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--list-metrics") {
            listMetrics();
            return 0;
        }
        if (i + 1 >= argc)
            return usageError("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                opt.workload = value;
            else if (flag == "--seed")
                opt.seed = std::stoull(value);
            else if (flag == "--seconds")
                opt.seconds = std::stod(value);
            else if (flag == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (flag == "--workdir")
                opt.workdir = value;
            else if (flag == "--git-rev")
                opt.gitRev = value;
            else
                return usageError("unknown option " + flag);
        } catch (const std::exception &) {
            return usageError("bad value '" + value + "' for " + flag);
        }
    }
    if (!(opt.seconds > 0.0))
        return usageError("--seconds must be positive");

    Result res;
    try {
        if (opt.workload == "cli_sweep")
            res = runCliSweep(opt);
        else if (opt.workload == "cli_compute")
            res = runCliCompute(opt);
        else if (opt.workload == "serve_mix")
            res = runServeMix(opt);
        else
            return usageError("unknown workload '" + opt.workload + "'");
    } catch (const std::exception &err) {
        std::cerr << "gables_e2e: " << opt.workload
                  << " failed: " << err.what() << '\n';
        return 1;
    }
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    if (!opt.trace)
        res.metrics["peak_rss_mb"] =
            static_cast<double>(usage.ru_maxrss) / 1024.0;
    printResult(opt, res);
    return 0;
}
