/**
 * @file
 * The determinism contract of the parallel evaluation engine: for
 * sweeps, the design explorer, and ERT trial batches (plus their
 * fitted rooflines and RunReport JSON), running with --jobs 8 must
 * produce byte-identical output to --jobs 1. Doubles are compared
 * bit-for-bit via memcmp, not with a tolerance.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "analysis/explorer.h"
#include "analysis/sweep.h"
#include "ert/ert.h"
#include "ert/fitter.h"
#include "soc/catalog.h"
#include "telemetry/report.h"
#include "telemetry/stats.h"

namespace gables {
namespace {

/** Bit-for-bit equality of two double vectors. */
bool
bitIdentical(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(double)) == 0);
}

std::vector<double>
linspace(double lo, double hi, size_t n)
{
    std::vector<double> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                               static_cast<double>(n - 1));
    return out;
}

TEST(ParallelDeterminism, MixingSweepByteIdentical)
{
    SocSpec soc = SocCatalog::snapdragon835();
    std::vector<double> fractions = linspace(0.0, 1.0, 97);
    Series serial = Sweep::mixing(soc, 8.0, 0.5, fractions, true, 1);
    Series parallel8 =
        Sweep::mixing(soc, 8.0, 0.5, fractions, true, 8);
    EXPECT_EQ(serial.label, parallel8.label);
    EXPECT_TRUE(bitIdentical(serial.x, parallel8.x));
    EXPECT_TRUE(bitIdentical(serial.y, parallel8.y));
}

TEST(ParallelDeterminism, ExplorerByteIdentical)
{
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase good = Usecase::twoIp("good", 0.75, 8.0, 8.0);
    Usecase bad = Usecase::twoIp("bad", 0.75, 8.0, 0.1);
    CostModel cost;
    cost.costPerAcceleration = 1.0;
    cost.costPerBpeak = 1e-9;
    DesignExplorer ex(base, {good, bad}, cost);
    ex.sweepBpeak(linspace(5e9, 60e9, 12));
    ex.sweepAcceleration(1, linspace(1.0, 25.0, 7));
    ex.sweepIpBandwidth(1, linspace(2e9, 40e9, 5));

    // Pruned and unpruned, the frontier of 8 workers is the serial
    // one: every member's design, scores and cost, in order.
    for (bool prune : {true, false}) {
        ExploreOptions one;
        one.prune = prune;
        one.subgridSize = 37;
        ExploreOptions eight = one;
        eight.jobs = 8;
        auto serial = ex.exploreFrontier(one);
        auto parallel8 = ex.exploreFrontier(eight);
        ASSERT_FALSE(serial.empty());
        ASSERT_EQ(serial.size(), parallel8.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            const Candidate &a = serial[i];
            const Candidate &b = parallel8[i];
            EXPECT_TRUE(bitIdentical({a.minPerf, a.cost},
                                     {b.minPerf, b.cost}))
                << "member " << i << " prune " << prune;
            EXPECT_TRUE(bitIdentical(a.perUsecase, b.perUsecase))
                << "member " << i << " prune " << prune;
            EXPECT_TRUE(bitIdentical(
                {a.soc.bpeak(), a.soc.ip(1).acceleration,
                 a.soc.ip(1).bandwidth},
                {b.soc.bpeak(), b.soc.ip(1).acceleration,
                 b.soc.ip(1).bandwidth}))
                << "member " << i << " prune " << prune;
        }
    }
}

TEST(ParallelDeterminism, ErtTrialsAndFitByteIdentical)
{
    ErtSweep::SocFactory make_soc = [] {
        return SocCatalog::snapdragon835Sim();
    };
    ErtConfig config;
    config.intensities = ErtConfig::defaultIntensities();

    auto serial = ErtSweep::run(make_soc, "GPU", config, 1);
    auto parallel8 = ErtSweep::run(make_soc, "GPU", config, 8);
    ASSERT_EQ(serial.size(), parallel8.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        const ErtSample &a = serial[i];
        const ErtSample &b = parallel8[i];
        EXPECT_TRUE(bitIdentical(
            {a.opsPerByte, a.workingSetBytes, a.opsRate, a.byteRate,
             a.missByteRate},
            {b.opsPerByte, b.workingSetBytes, b.opsRate, b.byteRate,
             b.missByteRate}))
            << "sample " << i;
    }

    RooflineFit fit1 = RooflineFitter::fitDram(serial);
    RooflineFit fit8 = RooflineFitter::fitDram(parallel8);
    EXPECT_TRUE(bitIdentical(
        {fit1.peakOps, fit1.peakBw, fit1.ridge, fit1.maxRelResidual},
        {fit8.peakOps, fit8.peakBw, fit8.ridge,
         fit8.maxRelResidual}));
}

/** Render the sweep RunReport exactly as `gables sweep --metrics`. */
std::string
sweepReportJson(int jobs)
{
    SocSpec soc = SocCatalog::snapdragon835();
    std::vector<double> fractions = linspace(0.0, 1.0, 33);
    parallel::ForStats pstats;
    Series series =
        Sweep::mixing(soc, 1.0, 1.0, fractions, true, jobs, &pstats);

    telemetry::StatsRegistry reg;
    telemetry::TimeSeries &ts = reg.timeSeries(
        "mixing.normalized_perf",
        "normalized attainable vs fraction f at IP[1]");
    for (size_t i = 0; i < series.x.size(); ++i)
        ts.sample(series.x[i], series.y[i]);
    reg.counter("parallel.workers", "worker-pool size")
        .add(pstats.workers);
    telemetry::Distribution &busy =
        reg.distribution("parallel.worker_busy_s", "busy seconds");
    for (double b : pstats.busySeconds)
        busy.sample(b);

    telemetry::RunReport report("gables sweep", soc.name());
    report.addConfig("soc", "sd835");
    report.addConfig("i0", 1.0);
    report.addConfig("i1", 1.0);
    report.addConfig("points", static_cast<long>(fractions.size()));
    report.addConfig("jobs", static_cast<long>(jobs));
    report.setRegistry(&reg);
    std::ostringstream out;
    report.write(out);
    return out.str();
}

/**
 * Drop the lines the contract excludes: the "jobs" config echo and
 * the "parallel.*" stats (worker count and wall-clock busy time).
 */
std::string
stripJobsFields(const std::string &json)
{
    std::istringstream in(json);
    std::ostringstream out;
    std::string line;
    bool skipping = false;
    while (std::getline(in, line)) {
        if (line.find("\"parallel.") != std::string::npos)
            skipping = true; // stat object spans several lines
        if (!skipping && line.find("\"jobs\"") == std::string::npos)
            out << line << '\n';
        if (skipping && line.find('}') != std::string::npos)
            skipping = false;
    }
    return out.str();
}

TEST(ParallelDeterminism, RunReportIdenticalModuloJobsFields)
{
    std::string report1 = sweepReportJson(1);
    std::string report8 = sweepReportJson(8);
    // The raw reports differ (jobs echo, busy times)...
    EXPECT_NE(report1, report8);
    // ...but stripped of the jobs fields they are byte-identical.
    EXPECT_EQ(stripJobsFields(report1), stripJobsFields(report8));
    // And the stripping really removed the excluded fields.
    EXPECT_EQ(stripJobsFields(report1).find("parallel."),
              std::string::npos);
}

} // namespace
} // namespace gables
