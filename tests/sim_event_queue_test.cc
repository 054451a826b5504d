/**
 * @file
 * Unit tests for the discrete-event core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gables {
namespace sim {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(3.0, [&] { order.push_back(3); });
    eq.schedule(1.0, [&] { order.push_back(1); });
    eq.schedule(2.0, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(eq.now(), 3.0);
}

TEST(EventQueue, FifoAmongSimultaneousEvents)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(1.0, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1.0, [&] {
        ++fired;
        eq.schedule(2.0, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(eq.now(), 2.0);
}

TEST(EventQueue, PastSchedulingRejected)
{
    EventQueue eq;
    eq.schedule(5.0, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(1.0, [] {}), FatalError);
}

TEST(EventQueue, EventCount)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(static_cast<double>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 7u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(1.0, [] {});
    eq.run();
    eq.schedule(9.0, [] {});
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_DOUBLE_EQ(eq.now(), 0.0);
    EXPECT_EQ(eq.eventsExecuted(), 0u);
    // Time zero is schedulable again after reset.
    EXPECT_NO_THROW(eq.schedule(0.5, [] {}));
}

TEST(EventQueue, EmptyRunIsNoop)
{
    EventQueue eq;
    EXPECT_DOUBLE_EQ(eq.run(), 0.0);
    EXPECT_TRUE(eq.empty());
}

/**
 * Property test: for random schedules — heavy ties, wide and narrow
 * time ranges, events scheduled from inside callbacks — the queue
 * must execute in exactly the order of a stable sort by time of the
 * insertion sequence (i.e. (when, insertion index) order).
 */
TEST(EventQueue, PropertyMatchesStableSortReference)
{
    Rng rng(0xE7E47u);
    for (int trial = 0; trial < 50; ++trial) {
        // Mix scales across trials: some schedules span nanoseconds,
        // some span millions of seconds (stresses epoch rebasing),
        // some collapse onto a handful of tied instants.
        double span = rng.logUniform(1e-9, 1e6);
        int distinct = static_cast<int>(rng.uniformInt(1, 40));
        int initial = static_cast<int>(rng.uniformInt(1, 120));
        int nested_per = static_cast<int>(rng.uniformInt(0, 3));

        // (when, insertion index) of every scheduled event, in
        // schedule order; nested events are appended as they are
        // scheduled, exactly as the queue assigns sequence numbers.
        std::vector<std::pair<double, size_t>> ref;
        std::vector<size_t> fired;

        EventQueue eq;
        Rng nest_rng(0xBADC0DEu + static_cast<uint64_t>(trial));
        auto schedule_top = [&](double when) {
            size_t id = ref.size();
            ref.push_back({when, id});
            eq.schedule(when, [&, id, when] {
                fired.push_back(id);
                // Only the first generation nests further events.
                for (int n = 0; n < nested_per; ++n) {
                    // Nested events land at or after the current
                    // time, sometimes exactly at it (a tie with the
                    // running instant).
                    double delta =
                        nest_rng.uniform() < 0.3
                            ? 0.0
                            : nest_rng.uniform(0.0, span * 0.1);
                    size_t nid = ref.size();
                    ref.push_back({when + delta, nid});
                    eq.schedule(when + delta,
                                [&fired, nid] { fired.push_back(nid); });
                }
            });
        };
        for (int i = 0; i < initial; ++i) {
            double when =
                span *
                static_cast<double>(rng.uniformInt(0, distinct)) /
                static_cast<double>(distinct);
            schedule_top(when);
        }
        eq.run();

        ASSERT_EQ(fired.size(), ref.size());
        std::vector<std::pair<double, size_t>> expect = ref;
        std::stable_sort(expect.begin(), expect.end(),
                         [](const std::pair<double, size_t> &a,
                            const std::pair<double, size_t> &b) {
                             return a.first < b.first;
                         });
        for (size_t i = 0; i < expect.size(); ++i) {
            ASSERT_EQ(fired[i], expect[i].second)
                << "trial " << trial << " position " << i;
        }
    }
}

/** Back-to-back runs on one queue reuse pooled event storage: after
 * the first run has sized the pool, reset() + an identical schedule
 * pattern recycles storage for (nearly) every event. */
TEST(EventQueue, ResetRetainsPooledStorage)
{
    EventQueue eq;
    auto load = [&eq] {
        for (int i = 0; i < 200; ++i)
            eq.schedule(static_cast<double>(i % 17), [] {});
        eq.run();
    };
    load();
    eq.reset();
    uint64_t before = eq.eventsPooled();
    EXPECT_EQ(before, 0u); // reset() zeroes the stat...
    load();
    // ...but the second pass reuses the first pass's capacity.
    EXPECT_GE(eq.eventsPooled(), 150u);
    EXPECT_EQ(eq.eventsExecuted(), 200u);
}

} // namespace
} // namespace sim
} // namespace gables
