/**
 * @file
 * Hot-path throughput harness for the discrete-event core. Measures
 * the workloads that dominate sweep/ERT wall-clock:
 *
 *  - event_dense_2ip: two contending IPs with small requests — the
 *    event-machinery stress test (no batching is legal here, so this
 *    isolates queue + dispatch cost per event).
 *  - sweep_shape: many single-IP runs across an intensity grid, the
 *    shape `gables sweep` issues per grid point.
 *  - ert_shape: single-IP working-set sweep runs, the shape the ERT
 *    harness issues per sample.
 *
 * With --json PATH the measured rates are written as
 * BENCH_sim_hotpath.json for the perf-regression trajectory; CI
 * compares them against the committed baseline with a generous
 * tolerance. Run with --reps N to scale measurement time.
 */

#include <chrono>
#include <cstdint>
#include <sstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/soc.h"
#include "soc/catalog.h"
#include "util/atomic_file.h"
#include "util/json_writer.h"
#include "util/parse.h"

namespace {

using namespace gables;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Two identical IPs contending for one DRAM; tiny requests so the
 * run is dense in events (every chunk is one event dispatch). */
std::unique_ptr<sim::SimSoc>
makeContendedSoc()
{
    auto soc = std::make_unique<sim::SimSoc>("hotpath-2ip");
    soc->setDram(30e9, 100e-9);
    sim::BandwidthResource *fabric = soc->addFabric("f", 120e9, 20e-9);
    for (const char *name : {"A", "B"}) {
        sim::IpEngineConfig cfg;
        cfg.name = name;
        cfg.opsPerSec = 100e9;
        cfg.requestBytes = 256.0;
        cfg.maxOutstanding = 16;
        sim::SimSoc::EngineAttachment at;
        at.linkBandwidth = 25e9;
        at.fabric = fabric;
        soc->addEngine(cfg, at);
    }
    return soc;
}

sim::KernelJob
streamJob(double total_bytes, double intensity)
{
    sim::KernelJob job;
    job.workingSetBytes = total_bytes;
    job.totalBytes = total_bytes;
    job.opsPerByte = intensity;
    return job;
}

struct Measurement {
    double eventsPerSec = 0.0;
    double nsPerEvent = 0.0;
    double runsPerSec = 0.0;
    uint64_t events = 0;
    double seconds = 0.0; // wall time of the best (fastest) rep
};

/**
 * Each rep is timed on its own and the fastest rep is reported: the
 * minimum is the measurement least disturbed by scheduler and
 * frequency noise, which keeps the committed baseline stable for the
 * CI regression gate. `events` and the rates describe that best rep.
 */
class BestOf
{
  public:
    void sample(double seconds, uint64_t events, uint64_t runs)
    {
        double rate = static_cast<double>(events) / seconds;
        if (rate <= best_.eventsPerSec)
            return;
        best_.eventsPerSec = rate;
        best_.nsPerEvent =
            1e9 * seconds / static_cast<double>(events);
        best_.runsPerSec = static_cast<double>(runs) / seconds;
        best_.events = events;
        best_.seconds = seconds;
    }

    const Measurement &result() const { return best_; }

  private:
    Measurement best_;
};

/** The event-dense contended workload: events/sec is the headline. */
Measurement
measureEventDense(int reps)
{
    auto soc = makeContendedSoc();
    sim::KernelJob job = streamJob(4e6, 0.01);
    double checksum = 0.0;
    BestOf best;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        sim::SocRunStats stats =
            soc->run({{"A", job}, {"B", job}});
        double seconds = secondsSince(t0);
        best.sample(seconds, soc->eventQueue().eventsExecuted(), 1);
        checksum += stats.duration;
    }
    if (!(checksum > 0.0))
        std::cerr << "warning: implausible zero checksum\n";
    return best.result();
}

/** Single-IP intensity grid, one run per point (sweep shape). */
Measurement
measureSweepShape(int reps)
{
    auto soc = SocCatalog::simpleSim(10e9, 20e9, 40e9);
    std::vector<double> intensities;
    for (int i = 0; i < 32; ++i)
        intensities.push_back(0.05 * (1 + i));
    BestOf best;
    for (int r = 0; r < reps; ++r) {
        uint64_t events = 0;
        Clock::time_point t0 = Clock::now();
        for (double i : intensities) {
            soc->run({{"IP0", streamJob(16e6, i)}});
            events += soc->eventQueue().eventsExecuted();
        }
        double seconds = secondsSince(t0);
        best.sample(seconds, events, intensities.size());
    }
    return best.result();
}

/** Single-IP working-set ladder on the 835 sim (ERT shape). */
Measurement
measureErtShape(int reps)
{
    auto soc = SocCatalog::snapdragon835Sim();
    std::vector<double> sets;
    for (double s = 64e3; s <= 64e6; s *= 4.0)
        sets.push_back(s);
    BestOf best;
    for (int r = 0; r < reps; ++r) {
        uint64_t events = 0;
        Clock::time_point t0 = Clock::now();
        for (double s : sets) {
            sim::KernelJob job = streamJob(16e6, 2.0);
            job.workingSetBytes = s;
            soc->run({{"CPU", job}});
            events += soc->eventQueue().eventsExecuted();
        }
        double seconds = secondsSince(t0);
        best.sample(seconds, events, sets.size());
    }
    return best.result();
}

void
writeMeasurement(JsonWriter &json, const std::string &name,
                 const Measurement &m)
{
    json.key(name);
    json.beginObject();
    json.kv("events_per_sec", m.eventsPerSec);
    json.kv("ns_per_event", m.nsPerEvent);
    json.kv("runs_per_sec", m.runsPerSec);
    json.kv("events", static_cast<size_t>(m.events));
    json.kv("seconds", m.seconds);
    json.endObject();
}

void
printMeasurement(const std::string &name, const Measurement &m)
{
    std::cout << "  " << name << ": "
              << formatDouble(m.eventsPerSec / 1e6, 2)
              << " M events/s, "
              << formatDouble(m.nsPerEvent, 1) << " ns/event, "
              << formatDouble(m.runsPerSec, 1) << " runs/s\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    int reps = 20;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = static_cast<int>(
                parseIntInRange(argv[++i], 1, 1000000, "--reps"));
        } else {
            std::cerr << "usage: bench_event_hotpath [--json PATH] "
                         "[--reps N]\n";
            return 2;
        }
    }
    if (reps < 1)
        reps = 1;

    bench::banner("Simulation hot path",
                  "event throughput on sweep/ERT-shaped workloads");

    // Warm up allocators and the event pool so steady-state rates are
    // measured, not first-touch costs.
    measureEventDense(1);

    Measurement dense = measureEventDense(reps);
    Measurement sweep = measureSweepShape(std::max(1, reps / 4));
    Measurement ert = measureErtShape(std::max(1, reps / 4));

    printMeasurement("event_dense_2ip", dense);
    printMeasurement("sweep_shape", sweep);
    printMeasurement("ert_shape", ert);

    if (!json_path.empty()) {
        std::ostringstream out;
        JsonWriter json(out);
        json.beginObject();
        json.key("schema");
        json.beginObject();
        json.kv("name", "gables-sim-hotpath-bench");
        json.kv("version", 1);
        json.endObject();
        json.kv("reps", reps);
        json.key("workloads");
        json.beginObject();
        writeMeasurement(json, "event_dense_2ip", dense);
        writeMeasurement(json, "sweep_shape", sweep);
        writeMeasurement(json, "ert_shape", ert);
        json.endObject();
        json.endObject();
        writeFileAtomic(json_path, out.str());
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}
