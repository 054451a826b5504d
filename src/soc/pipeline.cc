#include "soc/pipeline.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "sim/event_queue.h"
#include "util/logging.h"

namespace gables {
namespace sim {

double
PipelineStats::utilization(const std::string &name) const
{
    for (const ResourceStats &r : resources) {
        if (r.name == name)
            return r.utilization;
    }
    fatal("pipeline stats have no resource named '" + name + "'");
}

PipelineSim::PipelineSim(const SocSpec &soc, const DataflowGraph &graph)
    : soc_(soc), graph_(graph)
{
    if (graph_.stages().empty())
        fatal("pipeline sim: dataflow '" + graph.name() +
              "' has no stages");
    for (const DataflowStage &s : graph_.stages())
        stages_.push_back(StageRef{soc_.ipIndex(s.ip), s.opsPerFrame});
    for (const DataflowBuffer &b : graph_.buffers()) {
        if (!b.producer.empty())
            soc_.ipIndex(b.producer);
        if (!b.consumer.empty())
            soc_.ipIndex(b.consumer);
    }
}

namespace {

/** Per-(stage, slice) progress state. */
struct StageInstance {
    int inputsRemaining = 0;
    bool computeStarted = false;
};

} // namespace

PipelineStats
PipelineSim::run(int frames, double source_fps, int slices)
{
    if (frames < 2)
        fatal("pipeline sim needs at least two frames");
    if (slices < 1)
        fatal("pipeline sim needs at least one slice per frame");

    // Sensor ring-buffer depth in frames (double buffering plus one
    // in flight keeps long pipelines fed).
    constexpr int kRing = 3;
    const int K = slices;
    const int total_slices = frames * K;

    // Fresh FIFO servers per run.
    std::vector<std::unique_ptr<BandwidthResource>> computes;
    std::vector<std::unique_ptr<BandwidthResource>> links;
    for (size_t i = 0; i < soc_.numIps(); ++i) {
        computes.push_back(std::make_unique<BandwidthResource>(
            soc_.ip(i).name + ".compute", soc_.ipPeakPerf(i)));
        links.push_back(std::make_unique<BandwidthResource>(
            soc_.ip(i).name + ".link", soc_.ip(i).bandwidth));
    }
    BandwidthResource dram("DRAM", soc_.bpeak());
    if (tracer_ != nullptr) {
        dram.setTracer(tracer_);
        for (auto &c : computes)
            c->setTracer(tracer_);
        for (auto &l : links)
            l->setTracer(tracer_);
    }
    EventQueue eq;

    const auto &buffers = graph_.buffers();
    const size_t n_stages = stages_.size();
    const size_t n_buffers = buffers.size();

    // Static wiring: stage index consuming / producing each buffer,
    // and the slice lag of each consumption. A buffer written by a
    // stage at or after its consumer (in stage order) — including
    // self-references like TNR — supplies the PREVIOUS frame's
    // slices (the multi-megabyte rate-matching the base model
    // assumes).
    std::vector<int> consumer_stage(n_buffers, -1);
    std::vector<int> producer_stage(n_buffers, -1);
    std::vector<int> lag(n_buffers, 0); // in slices
    std::vector<std::vector<size_t>> stage_outputs(n_stages);
    for (size_t b = 0; b < n_buffers; ++b) {
        for (size_t s = 0; s < n_stages; ++s) {
            if (!buffers[b].consumer.empty() &&
                graph_.stages()[s].ip == buffers[b].consumer)
                consumer_stage[b] = static_cast<int>(s);
            if (!buffers[b].producer.empty() &&
                graph_.stages()[s].ip == buffers[b].producer)
                producer_stage[b] = static_cast<int>(s);
        }
        if (!buffers[b].producer.empty() && producer_stage[b] < 0)
            fatal("buffer '" + buffers[b].label + "' produced by '" +
                  buffers[b].producer + "' which has no stage");
        if (!buffers[b].consumer.empty() && consumer_stage[b] < 0)
            fatal("buffer '" + buffers[b].label + "' consumed by '" +
                  buffers[b].consumer + "' which has no stage");
        if (producer_stage[b] >= 0)
            stage_outputs[static_cast<size_t>(producer_stage[b])]
                .push_back(b);
        if (producer_stage[b] >= 0 && consumer_stage[b] >= 0 &&
            producer_stage[b] >= consumer_stage[b])
            lag[b] = K; // one full frame behind
    }

    // Per-slice completion accounting: one tick per external write,
    // per stage compute, per stage buffer write, and per external-
    // consumer DMA read.
    int ticks_per_slice = static_cast<int>(n_stages);
    std::vector<int> inputs_per_stage(n_stages, 0);
    for (size_t b = 0; b < n_buffers; ++b) {
        if (buffers[b].producer.empty())
            ++ticks_per_slice;
        if (buffers[b].consumer.empty())
            ++ticks_per_slice;
        else
            ++inputs_per_stage[static_cast<size_t>(consumer_stage[b])];
        if (producer_stage[b] >= 0)
            ++ticks_per_slice;
    }

    PipelineStats stats;
    stats.frames = frames;
    stats.frameDone.assign(frames, 0.0);
    std::vector<int> remaining(frames, ticks_per_slice * K);
    std::vector<std::vector<StageInstance>> state(
        total_slices, std::vector<StageInstance>(n_stages));
    for (int m = 0; m < total_slices; ++m) {
        for (size_t s = 0; s < n_stages; ++s)
            state[m][s].inputsRemaining = inputs_per_stage[s];
    }

    auto slice_bytes = [&](size_t b) {
        return buffers[b].bytesPerFrame / K;
    };
    auto pace_time = [&](int m) {
        return source_fps > 0.0
                   ? static_cast<double>(m) / (K * source_fps)
                   : 0.0;
    };

    auto tick = [&](int m) {
        int n = m / K;
        GABLES_ASSERT(remaining[n] > 0, "over-completed frame");
        stats.frameDone[n] = std::max(stats.frameDone[n], eq.now());
        --remaining[n];
    };

    // Externally produced buffers consumed by each stage (for ring
    // flow control at consumption time).
    std::vector<std::vector<size_t>> ext_inputs_of_stage(n_stages);
    for (size_t b = 0; b < n_buffers; ++b) {
        if (buffers[b].producer.empty() && consumer_stage[b] >= 0)
            ext_inputs_of_stage[static_cast<size_t>(consumer_stage[b])]
                .push_back(b);
    }

    // Mutually recursive event actions; all indices are slices.
    std::function<void(size_t, int)> on_written;
    std::function<void(size_t, int)> start_compute;
    std::function<void(size_t, int, double)> ext_write;

    // Buffer slice (b, written for slice wm) became available; its
    // consumer reads it for slice wm + lag (external consumers DMA
    // it straight out of DRAM).
    on_written = [&](size_t b, int wm) {
        if (buffers[b].consumer.empty()) {
            double done = dram.acquire(eq.now(), slice_bytes(b));
            int m = wm;
            eq.schedule(done, [&, m] { tick(m); });
            return;
        }
        size_t s = static_cast<size_t>(consumer_stage[b]);
        int m = wm + lag[b];
        if (m >= total_slices)
            return; // past the run horizon
        double t = dram.acquire(eq.now(), slice_bytes(b));
        t = links[stages_[s].ipIndex]->acquire(t, slice_bytes(b));
        eq.schedule(t, [&, s, m] {
            StageInstance &inst = state[m][s];
            GABLES_ASSERT(inst.inputsRemaining > 0,
                          "input arrived for a ready stage");
            if (--inst.inputsRemaining == 0)
                start_compute(s, m);
        });
    };

    start_compute = [&](size_t s, int m) {
        StageInstance &inst = state[m][s];
        GABLES_ASSERT(!inst.computeStarted, "stage started twice");
        inst.computeStarted = true;
        // Ring-buffer flow control: once this stage consumes slice
        // m of an externally produced buffer, the sensor may reuse
        // that slot for slice m + kRing*K. Gating on consumption
        // (not read completion) stops the source from racing ahead
        // of the pipeline and flooding the DRAM FIFO.
        for (size_t b : ext_inputs_of_stage[s]) {
            if (m + kRing * K < total_slices)
                ext_write(b, m + kRing * K, eq.now());
        }
        double done = computes[stages_[s].ipIndex]->acquire(
            eq.now(), stages_[s].opsPerFrame / K);
        eq.schedule(done, [&, s, m] {
            tick(m); // compute completion
            for (size_t b : stage_outputs[s]) {
                double t = links[stages_[s].ipIndex]->acquire(
                    eq.now(), slice_bytes(b));
                t = dram.acquire(t, slice_bytes(b));
                eq.schedule(t, [&, b, m] {
                    tick(m); // write completion
                    on_written(b, m);
                });
            }
        });
    };

    // External producers: slice m's DMA write launches at the source
    // pace and no earlier than the consumer's read of slice m - 2K
    // (a double-buffered sensor ring), so an unpaced source keeps
    // the pipe fed without flooding the DRAM FIFO arbitrarily far
    // ahead.
    ext_write = [&](size_t b, int m, double not_before) {
        double when = std::max(not_before, pace_time(m));
        eq.schedule(when, [&, b, m] {
            double done = dram.acquire(eq.now(), slice_bytes(b));
            eq.schedule(done, [&, b, m] {
                tick(m);
                on_written(b, m);
            });
        });
    };

    for (size_t b = 0; b < n_buffers; ++b) {
        if (buffers[b].producer.empty()) {
            for (int m = 0; m < std::min(kRing * K, total_slices); ++m)
                ext_write(b, m, 0.0);
        }
    }
    // Cold start: lagged buffers hold (zero-initialized) previous-
    // frame data, available immediately for frame 0's slices.
    for (size_t b = 0; b < n_buffers; ++b) {
        if (lag[b] > 0) {
            for (int k = 0; k < K; ++k) {
                int wm = k - K; // frame -1's slice k
                eq.schedule(0.0, [&, b, wm] { on_written(b, wm); });
            }
        }
    }
    // Stages with no inputs at all start on their own each slice.
    for (size_t s = 0; s < n_stages; ++s) {
        if (inputs_per_stage[s] == 0) {
            for (int m = 0; m < total_slices; ++m) {
                eq.schedule(pace_time(m),
                            [&, s, m] { start_compute(s, m); });
            }
        }
    }

    stats.makespan = eq.run();
    for (int n = 0; n < frames; ++n) {
        GABLES_ASSERT(remaining[n] == 0,
                      "frame " + std::to_string(n) +
                          " never completed");
    }

    // Steady-state window: skip the first half (pipeline fill) and
    // the last few frames (drain — frames near the horizon have no
    // successors contending for DRAM, so they complete artificially
    // fast).
    int half = frames / 2;
    int end = std::max(half + 1, frames - 1 - 2 * kRing);
    double span = stats.frameDone[end] - stats.frameDone[half - 1];
    GABLES_ASSERT(span > 0.0, "pipeline produced non-increasing times");
    stats.steadyFps = static_cast<double>(end - half + 1) / span;

    auto snapshot = [&](const BandwidthResource &r) {
        stats.resources.push_back(
            ResourceStats{r.name(), r.bytesServed(), r.busyTime(),
                          r.utilization(stats.makespan)});
    };
    snapshot(dram);
    for (const auto &l : links)
        snapshot(*l);
    for (const auto &c : computes)
        snapshot(*c);
    return stats;
}

} // namespace sim
} // namespace gables
