/**
 * @file
 * Unit tests for the worker-pool / parallel_for layer: degenerate
 * ranges, ranges smaller than the pool, exception propagation from
 * workers (lowest failing index wins, as in a serial loop), nested
 * loops, and the guarantee that jobs = 1 never spawns a thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "parallel/parallel_for.h"
#include "util/logging.h"

namespace gables {
namespace {

TEST(ParallelFor, DefaultJobsIsPositive)
{
    EXPECT_GE(parallel::defaultJobs(), 1);
}

TEST(ParallelFor, EmptyRangeNeverCallsBody)
{
    std::atomic<int> calls{0};
    parallel::ForStats stats = parallel::parallelFor(
        0, [&](size_t) { ++calls; }, 8);
    EXPECT_EQ(calls.load(), 0);
    EXPECT_EQ(stats.workers, 1); // nothing to do => no pool
    ASSERT_EQ(stats.busySeconds.size(), 1u);
}

TEST(ParallelFor, RangeSmallerThanWorkerCount)
{
    std::vector<int> hits(3, 0);
    parallel::ForStats stats = parallel::parallelFor(
        hits.size(), [&](size_t i) { hits[i] += 1; }, 8);
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
    // The pool never allocates more workers than indices.
    EXPECT_LE(stats.workers, 3);
    EXPECT_EQ(stats.busySeconds.size(),
              static_cast<size_t>(stats.workers));
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    const size_t n = 1000;
    std::vector<int> counts(n, 0);
    parallel::parallelFor(
        n, [&](size_t i) { counts[i] += 1; }, 8);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0),
              static_cast<int>(n));
    EXPECT_EQ(*std::min_element(counts.begin(), counts.end()), 1);
    EXPECT_EQ(*std::max_element(counts.begin(), counts.end()), 1);
}

TEST(ParallelFor, ExceptionFromWorkerPropagates)
{
    EXPECT_THROW(parallel::parallelFor(
                     100,
                     [&](size_t i) {
                         if (i == 41)
                             fatal("boom at 41");
                     },
                     4),
                 FatalError);
}

TEST(ParallelFor, LowestFailingIndexWinsLikeSerial)
{
    // Several indices fail; the surfaced exception must be the one a
    // serial left-to-right loop would have thrown, for any job count.
    auto body = [](size_t i) {
        if (i >= 17)
            fatal("failed at index " + std::to_string(i));
    };
    for (int jobs : {1, 2, 8}) {
        try {
            parallel::parallelFor(200, body, jobs);
            FAIL() << "expected FatalError with jobs=" << jobs;
        } catch (const FatalError &err) {
            EXPECT_STREQ(err.what(), "failed at index 17")
                << "jobs=" << jobs;
        }
    }
}

TEST(ParallelFor, NestedLoopRunsInlineWithoutDeadlock)
{
    const size_t outer = 8, inner = 64;
    std::vector<std::vector<double>> grid(outer,
                                          std::vector<double>(inner));
    parallel::parallelFor(
        outer,
        [&](size_t i) {
            parallel::ForStats stats = parallel::parallelFor(
                inner,
                [&](size_t j) {
                    grid[i][j] = static_cast<double>(i * inner + j);
                },
                4);
            // The inner loop degrades to the calling worker alone.
            EXPECT_EQ(stats.workers, 1);
        },
        4);
    for (size_t i = 0; i < outer; ++i)
        for (size_t j = 0; j < inner; ++j)
            EXPECT_EQ(grid[i][j], static_cast<double>(i * inner + j));
}

TEST(ParallelFor, SingleJobNeverSpawnsThreads)
{
    std::set<std::thread::id> ids;
    parallel::ForStats stats = parallel::parallelFor(
        64, [&](size_t) { ids.insert(std::this_thread::get_id()); },
        1);
    EXPECT_EQ(stats.workers, 1);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ParallelFor, WorkerIndexIsStableAndInRange)
{
    const size_t n = 512;
    std::vector<int> worker_of(n, -1);
    parallel::ForStats stats = parallel::parallelFor(
        n, [&](size_t i, int worker) { worker_of[i] = worker; },
        4);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_GE(worker_of[i], 0);
        EXPECT_LT(worker_of[i], stats.workers);
    }
}

TEST(ParallelFor, RejectsNegativeJobs)
{
    EXPECT_THROW(parallel::parallelFor(
                     4, [](size_t) {}, -1),
                 FatalError);
}

TEST(ThreadPool, ReusableAcrossLoops)
{
    parallel::ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 4);
    std::vector<int> a(100, 0), b(50, 0);
    pool.forEach(a.size(), [&](size_t i, int) { a[i] = 1; });
    pool.forEach(b.size(), [&](size_t i, int) { b[i] = 2; });
    EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0), 100);
    EXPECT_EQ(std::accumulate(b.begin(), b.end(), 0), 100);
    EXPECT_EQ(pool.busySeconds().size(), 4u);
}

TEST(ThreadPool, EmptyAndSingleIndexRanges)
{
    parallel::ThreadPool pool(4);
    int calls = 0;
    pool.forEach(0, [&](size_t, int) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.forEach(1, [&](size_t, int) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SurvivesExceptionAndKeepsWorking)
{
    parallel::ThreadPool pool(4);
    EXPECT_THROW(
        pool.forEach(32, [&](size_t i, int) {
            if (i == 3)
                fatal("worker failure");
        }),
        FatalError);
    // The pool is still usable after a failed loop.
    std::vector<int> ok(64, 0);
    pool.forEach(ok.size(), [&](size_t i, int) { ok[i] = 1; });
    EXPECT_EQ(std::accumulate(ok.begin(), ok.end(), 0), 64);
}

} // namespace
} // namespace gables
