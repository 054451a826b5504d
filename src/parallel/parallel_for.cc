#include "parallel/parallel_for.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "telemetry/span.h"
#include "util/logging.h"

namespace gables {
namespace parallel {

namespace {

// True while the current thread is executing a loop body; nested
// parallel loops then run inline instead of waiting on a pool that
// may itself be waiting on them.
thread_local bool tls_inside_loop = false;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int workers)
    : workers_(std::max(1, workers)), busy_(workers_, 0.0),
      errors_(workers_)
{
    threads_.reserve(static_cast<size_t>(workers_ - 1));
    for (int w = 1; w < workers_; ++w)
        threads_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::workerLoop(int worker)
{
    uint64_t seen = 0;
    while (true) {
        {
            // The idle span closes before the busy one opens, so the
            // profile cleanly splits a worker's life into wait vs
            // work time.
            telemetry::ScopedSpan idle("parallel.idle");
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stopping_ || generation_ != seen;
            });
            if (stopping_)
                return;
            seen = generation_;
        }
        runWorker(worker);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --pending_;
        }
        done_.notify_one();
    }
}

void
ThreadPool::runWorker(int worker)
{
    GABLES_SPAN("parallel.worker");
    auto start = std::chrono::steady_clock::now();
    tls_inside_loop = true;
    // Claim chunks in monotonically increasing order. After any
    // failure, workers finish the chunk they hold but claim no new
    // ones; combined with in-order scanning inside each chunk this
    // guarantees every index below the lowest recorded failure was
    // evaluated, so the rethrown exception matches the serial path.
    while (!failed_.load(std::memory_order_acquire)) {
        size_t begin = next_.fetch_add(chunk_, std::memory_order_relaxed);
        if (begin >= n_)
            break;
        size_t end = std::min(n_, begin + chunk_);
        for (size_t i = begin; i < end; ++i) {
            try {
                (*body_)(i, worker);
            } catch (...) {
                WorkerError &err = errors_[static_cast<size_t>(worker)];
                if (i < err.index) {
                    err.index = i;
                    err.exception = std::current_exception();
                }
                failed_.store(true, std::memory_order_release);
                break; // indices after i in this chunk are > i
            }
        }
    }
    tls_inside_loop = false;
    busy_[static_cast<size_t>(worker)] = secondsSince(start);
}

void
ThreadPool::runInline(size_t n,
                      const std::function<void(size_t, int)> &body)
{
    busy_.assign(static_cast<size_t>(workers_), 0.0);
    auto start = std::chrono::steady_clock::now();
    bool was_inside = tls_inside_loop;
    tls_inside_loop = true;
    try {
        for (size_t i = 0; i < n; ++i)
            body(i, 0);
    } catch (...) {
        tls_inside_loop = was_inside;
        busy_[0] = secondsSince(start);
        throw;
    }
    tls_inside_loop = was_inside;
    busy_[0] = secondsSince(start);
}

void
ThreadPool::forEach(size_t n,
                    const std::function<void(size_t, int)> &body)
{
    if (workers_ == 1 || n <= 1 || tls_inside_loop) {
        runInline(n, body);
        return;
    }

    for (WorkerError &err : errors_) {
        err.index = std::numeric_limits<size_t>::max();
        err.exception = nullptr;
    }
    busy_.assign(static_cast<size_t>(workers_), 0.0);

    // Chunk for load balance: enough chunks that a slow index cannot
    // stall the loop.
    const size_t chunk =
        std::max<size_t>(1, n / (static_cast<size_t>(workers_) * 8));

    {
        std::lock_guard<std::mutex> lock(mutex_);
        n_ = n;
        chunk_ = chunk;
        body_ = &body;
        next_.store(0, std::memory_order_relaxed);
        failed_.store(false, std::memory_order_relaxed);
        pending_ = workers_ - 1;
        ++generation_;
    }
    wake_.notify_all();

    runWorker(0);

    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return pending_ == 0; });
        body_ = nullptr;
    }

    // Rethrow the failure of the lowest index, as a serial
    // left-to-right loop would have.
    const WorkerError *first = nullptr;
    for (const WorkerError &err : errors_) {
        if (err.exception && (!first || err.index < first->index))
            first = &err;
    }
    if (first)
        std::rethrow_exception(first->exception);
}

int
plannedWorkers(size_t n, int jobs)
{
    if (jobs < 0)
        fatal("parallelFor: jobs must be >= 0 (0 = hardware "
              "concurrency)");
    if (jobs == 0)
        jobs = defaultJobs();
    jobs = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(jobs), std::max<size_t>(n, 1)));
    // A loop launched from inside another loop's body runs inline on
    // the calling worker; don't spawn a pool that would sit idle.
    if (tls_inside_loop)
        jobs = 1;
    return jobs;
}

ForStats
parallelFor(size_t n, const std::function<void(size_t, int)> &body,
            int jobs)
{
    ThreadPool pool(plannedWorkers(n, jobs));
    pool.forEach(n, body);

    ForStats stats;
    stats.workers = pool.workers();
    stats.busySeconds = pool.busySeconds();
    return stats;
}

ForStats
parallelFor(size_t n, const std::function<void(size_t)> &body,
            int jobs)
{
    return parallelFor(
        n, [&body](size_t i, int) { body(i); }, jobs);
}

} // namespace parallel
} // namespace gables
