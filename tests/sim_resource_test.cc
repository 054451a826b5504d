/**
 * @file
 * Unit tests for the FIFO bandwidth server and memory path/local
 * memory models.
 */

#include <gtest/gtest.h>

#include "sim/memory_system.h"
#include "sim/resource.h"
#include "util/logging.h"

namespace gables {
namespace sim {
namespace {

TEST(Resource, IdleServerServesImmediately)
{
    BandwidthResource r("r", 100.0); // 100 B/s
    EXPECT_DOUBLE_EQ(r.acquire(0.0, 50.0), 0.5);
    EXPECT_DOUBLE_EQ(r.busyUntil(), 0.5);
}

TEST(Resource, LatencyAddsAfterService)
{
    BandwidthResource r("r", 100.0, 0.25);
    EXPECT_DOUBLE_EQ(r.acquire(0.0, 50.0), 0.75);
    // busyUntil excludes the latency (pipelined behind service).
    EXPECT_DOUBLE_EQ(r.busyUntil(), 0.5);
}

TEST(Resource, BackToBackRequestsQueue)
{
    BandwidthResource r("r", 100.0);
    EXPECT_DOUBLE_EQ(r.acquire(0.0, 100.0), 1.0);
    // Arrives at 0.2 but must wait for the first transfer.
    EXPECT_DOUBLE_EQ(r.acquire(0.2, 100.0), 2.0);
}

TEST(Resource, LateArrivalStartsAtArrival)
{
    BandwidthResource r("r", 100.0);
    r.acquire(0.0, 100.0); // busy until 1.0
    EXPECT_DOUBLE_EQ(r.acquire(5.0, 100.0), 6.0);
}

TEST(Resource, StatsAccumulate)
{
    BandwidthResource r("r", 100.0);
    r.acquire(0.0, 100.0);
    r.acquire(0.0, 50.0);
    EXPECT_DOUBLE_EQ(r.bytesServed(), 150.0);
    EXPECT_DOUBLE_EQ(r.busyTime(), 1.5);
    EXPECT_EQ(r.requestsServed(), 2u);
    EXPECT_DOUBLE_EQ(r.utilization(3.0), 0.5);
    EXPECT_DOUBLE_EQ(r.utilization(0.0), 0.0);
}

TEST(Resource, AcquireServiceBooksFixedTime)
{
    BandwidthResource r("r", 1e9);
    EXPECT_DOUBLE_EQ(r.acquireService(0.0, 0.5), 0.5);
    EXPECT_DOUBLE_EQ(r.acquireService(0.0, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(r.busyTime(), 1.0);
}

TEST(Resource, ResetClearsState)
{
    BandwidthResource r("r", 100.0);
    r.acquire(0.0, 100.0);
    r.reset();
    EXPECT_DOUBLE_EQ(r.busyUntil(), 0.0);
    EXPECT_DOUBLE_EQ(r.bytesServed(), 0.0);
    EXPECT_EQ(r.requestsServed(), 0u);
}

TEST(Resource, InvalidConstruction)
{
    EXPECT_THROW(BandwidthResource("bad", 0.0), FatalError);
    EXPECT_THROW(BandwidthResource("bad", 1.0, -0.1), FatalError);
}

TEST(MemoryPath, ChainsHops)
{
    BandwidthResource link("link", 100.0);
    BandwidthResource dram("dram", 50.0, 0.1);
    MemoryPath path;
    path.addHop(&link);
    path.addHop(&dram);
    // Link: 0 -> 1.0; DRAM: 1.0 -> 3.0 (+0.1 latency).
    EXPECT_DOUBLE_EQ(path.request(0.0, 100.0), 3.1);
}

TEST(MemoryPath, SharedHopCreatesContention)
{
    BandwidthResource link_a("a", 1000.0);
    BandwidthResource link_b("b", 1000.0);
    BandwidthResource dram("dram", 100.0);
    MemoryPath pa, pb;
    pa.addHop(&link_a);
    pa.addHop(&dram);
    pb.addHop(&link_b);
    pb.addHop(&dram);
    double t_a = pa.request(0.0, 100.0); // dram 0.1 -> 1.1
    double t_b = pb.request(0.0, 100.0); // dram busy until 1.1 -> 2.1
    EXPECT_DOUBLE_EQ(t_a, 1.1);
    EXPECT_DOUBLE_EQ(t_b, 2.1);
}

TEST(LocalMemory, FractionalFitHitRatio)
{
    LocalMemory mem("L2", 1024.0, 1e9, 0.0);
    mem.setWorkingSet(4096.0);
    EXPECT_DOUBLE_EQ(mem.hitRatio(), 0.25);
    mem.setWorkingSet(512.0);
    EXPECT_DOUBLE_EQ(mem.hitRatio(), 1.0);
}

TEST(LocalMemory, DeterministicInterleave)
{
    LocalMemory mem("L2", 1024.0, 1e9, 0.0);
    mem.setWorkingSet(4096.0); // 25% hits
    int hits = 0;
    for (int i = 0; i < 1000; ++i)
        hits += mem.nextIsHit() ? 1 : 0;
    EXPECT_EQ(hits, 250);
}

TEST(LocalMemory, AllHitsWhenFits)
{
    LocalMemory mem("L2", 1 << 20, 1e9, 0.0);
    mem.setWorkingSet(1024.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(mem.nextIsHit());
}

TEST(LocalMemory, NoHitsWithZeroCapacity)
{
    LocalMemory mem("none", 0.0, 1e9, 0.0);
    mem.setWorkingSet(1024.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(mem.nextIsHit());
}

} // namespace
} // namespace sim
} // namespace gables
