/**
 * @file
 * A small worker-pool / parallel_for layer for the embarrassingly
 * parallel grids that dominate the repo's data-producing paths: the
 * Figure-8 mixing sweeps, the design-space explorer's candidate
 * cross product, ERT trial batches, and the sim-vs-model comparison
 * driver.
 *
 * Design rules that make parallel runs byte-identical to the serial
 * path:
 *
 *  - Bodies write results into pre-sized output slots indexed by the
 *    loop index, so result ordering never depends on scheduling.
 *  - Work is handed out as chunked index ranges claimed in
 *    monotonically increasing order; chunk boundaries affect only
 *    load balance, never values.
 *  - Exceptions are captured per worker as std::exception_ptr and
 *    the one thrown by the lowest failing index is rethrown — the
 *    same exception a serial left-to-right loop would surface.
 *  - jobs = 1 runs inline on the calling thread and never spawns a
 *    thread; nested parallel loops degrade to inline execution
 *    instead of deadlocking the pool.
 */

#ifndef GABLES_PARALLEL_PARALLEL_FOR_H
#define GABLES_PARALLEL_PARALLEL_FOR_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gables {
namespace parallel {

/** @return max(1, std::thread::hardware_concurrency()). */
int defaultJobs();

/**
 * The worker count parallelFor(n, ..., jobs) will actually use,
 * including the clamp to n and the nested-loop inline fallback.
 * Callers that keep per-worker state (e.g. one model evaluator per
 * worker) size their state arrays with this before dispatching; the
 * worker index passed to the body is always below it.
 *
 * @param jobs Worker count: 0 = defaultJobs(), 1 = the serial path.
 */
int plannedWorkers(size_t n, int jobs);

/** Measured footprint of one loop, for telemetry RunReports. */
struct ForStats {
    /** Workers used; 1 means the calling thread ran the loop alone. */
    int workers = 1;
    /** Wall-clock seconds each worker spent inside the body. */
    std::vector<double> busySeconds;
};

/**
 * A fixed-size worker pool. Worker 0 is the thread that calls
 * forEach(); workers-1 threads are spawned at construction and wait
 * for dispatched index ranges. A pool with one worker spawns no
 * threads at all.
 */
class ThreadPool
{
  public:
    /** @param workers Total workers including the caller; >= 1. */
    explicit ThreadPool(int workers);

    /** Joins all spawned workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return Total worker count including the calling thread. */
    int workers() const { return workers_; }

    /**
     * Run body(index, worker) for every index in [0, n), blocking
     * until all indices finish. The worker argument is in
     * [0, workers()) and is stable for the duration of one call, so
     * bodies may keep worker-local state (e.g. one simulator
     * instance per worker).
     *
     * @throws Whatever the body threw for the lowest failing index.
     */
    void forEach(size_t n, const std::function<void(size_t, int)> &body);

    /** @return Per-worker busy seconds of the last forEach() call. */
    const std::vector<double> &busySeconds() const { return busy_; }

  private:
    struct WorkerError {
        size_t index;
        std::exception_ptr exception;
    };

    void workerLoop(int worker);
    void runWorker(int worker);
    void runInline(size_t n,
                   const std::function<void(size_t, int)> &body);

    int workers_;
    std::vector<std::thread> threads_;
    std::vector<double> busy_;
    std::vector<WorkerError> errors_;

    // Dispatch state for the current forEach() call.
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    uint64_t generation_ = 0;
    int pending_ = 0;
    bool stopping_ = false;
    size_t n_ = 0;
    size_t chunk_ = 1;
    const std::function<void(size_t, int)> *body_ = nullptr;
    std::atomic<size_t> next_{0};
    std::atomic<bool> failed_{false};
};

/**
 * Run body(index, worker) for index in [0, n) on a transient pool of
 * @p jobs workers (0 = hardware concurrency). Deterministic: see the
 * file comment. @return worker count and per-worker busy time.
 */
ForStats parallelFor(size_t n,
                     const std::function<void(size_t, int)> &body,
                     int jobs = 0);

/** Convenience overload for bodies that ignore the worker index. */
ForStats parallelFor(size_t n, const std::function<void(size_t)> &body,
                     int jobs = 0);

} // namespace parallel
} // namespace gables

#endif // GABLES_PARALLEL_PARALLEL_FOR_H
