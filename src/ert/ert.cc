#include "ert/ert.h"

#include <algorithm>
#include <cmath>

#include "telemetry/span.h"
#include "util/logging.h"

namespace gables {

namespace {

/** One trial: run the kernel job and package the measured rates. */
ErtSample
measure(sim::SimSoc &soc, const std::string &engine_name,
        const sim::KernelJob &job)
{
    GABLES_SPAN("ert.trial");
    sim::SocRunStats stats = soc.run({{engine_name, job}});
    const sim::EngineRunStats &e = stats.engine(engine_name);

    ErtSample sample;
    sample.opsPerByte = job.opsPerByte;
    sample.workingSetBytes = job.workingSetBytes;
    sample.opsRate = e.achievedOpsRate();
    sample.byteRate = e.achievedByteRate();
    sample.missByteRate = e.achievedMissRate();
    return sample;
}

/** @return One kernel job per intensity of @p config, in order. */
std::vector<sim::KernelJob>
trialJobs(const ErtConfig &config)
{
    if (config.intensities.empty())
        fatal("ERT sweep needs at least one intensity");
    std::vector<sim::KernelJob> jobs;
    jobs.reserve(config.intensities.size());
    for (double intensity : config.intensities)
        jobs.push_back({.workingSetBytes = config.workingSetBytes,
                        .totalBytes = config.totalBytes,
                        .opsPerByte = intensity,
                        .coordinationTime = config.coordinationTime});
    return jobs;
}

/**
 * Run one trial per job on per-worker simulators built by
 * @p make_soc; samples land in job-order slots.
 */
std::vector<ErtSample>
runBatch(const ErtSweep::SocFactory &make_soc,
         const std::string &engine_name,
         const std::vector<sim::KernelJob> &jobs, int pool_jobs,
         parallel::ForStats *stats)
{
    std::vector<ErtSample> samples(jobs.size());
    // Sized up front for the widest pool parallelFor may use; each
    // worker lazily builds its simulator on first use and is the
    // only thread that ever touches its slot.
    std::vector<std::unique_ptr<sim::SimSoc>> socs(
        static_cast<size_t>(std::max(parallel::defaultJobs(),
                                     std::max(pool_jobs, 1))));
    parallel::ForStats st = parallel::parallelFor(
        jobs.size(),
        [&](size_t i, int worker) {
            std::unique_ptr<sim::SimSoc> &soc =
                socs[static_cast<size_t>(worker)];
            if (!soc) {
                soc = make_soc();
                if (!soc)
                    fatal("ERT sweep: the SoC factory returned null");
            }
            samples[i] = measure(*soc, engine_name, jobs[i]);
        },
        pool_jobs);
    if (stats)
        *stats = st;
    return samples;
}

} // namespace

std::vector<double>
ErtConfig::defaultIntensities()
{
    std::vector<double> out;
    for (int k = -6; k <= 10; ++k)
        out.push_back(std::pow(2.0, k));
    return out;
}

std::vector<ErtSample>
ErtSweep::run(sim::SimSoc &soc, const std::string &engine_name,
              const ErtConfig &config)
{
    std::vector<ErtSample> samples;
    samples.reserve(config.intensities.size());
    for (const sim::KernelJob &job : trialJobs(config))
        samples.push_back(measure(soc, engine_name, job));
    return samples;
}

std::vector<ErtSample>
ErtSweep::run(const SocFactory &make_soc,
              const std::string &engine_name, const ErtConfig &config,
              int jobs, parallel::ForStats *stats)
{
    return runBatch(make_soc, engine_name, trialJobs(config), jobs,
                    stats);
}

std::vector<ErtSample>
ErtSweep::workingSetSweep(sim::SimSoc &soc,
                          const std::string &engine_name,
                          const std::vector<double> &working_sets,
                          double intensity, double bytes_per_point)
{
    if (working_sets.empty())
        fatal("working-set sweep needs at least one size");

    std::vector<ErtSample> samples;
    samples.reserve(working_sets.size());
    for (double set_bytes : working_sets) {
        sim::KernelJob job;
        job.workingSetBytes = set_bytes;
        job.totalBytes = std::max(bytes_per_point, set_bytes);
        job.opsPerByte = intensity;
        samples.push_back(measure(soc, engine_name, job));
    }
    return samples;
}

} // namespace gables
