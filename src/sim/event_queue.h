/**
 * @file
 * Discrete-event simulation core: a time-ordered event queue with
 * deterministic tie-breaking (FIFO among same-time events).
 *
 * Time is modeled as double seconds. The simulator is single-
 * threaded and deterministic: identical inputs produce identical
 * schedules on every run and platform.
 *
 * Hot-path design (DESIGN.md section 10): events are small tagged
 * records dispatched by switch, not heap-allocated std::function
 * closures; generic callbacks remain supported through a pooled slot
 * table. Pending events live in a two-level calendar structure — an
 * epoch of equal-width buckets that are sorted lazily as the drain
 * cursor reaches them, plus an unsorted overflow tier for events
 * beyond the epoch. The bucket count adapts to the pending
 * population at each rebase, so one O(n) partition maps the whole
 * overflow into the epoch — giving O(1) amortized schedule/pop while
 * preserving exact (when, seq) FIFO order.
 */

#ifndef GABLES_SIM_EVENT_QUEUE_H
#define GABLES_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/logging.h"

namespace gables {
namespace sim {

class IpEngine;

/** What a fired event does; see EventQueue::dispatch. */
enum class EventKind : uint8_t {
    /** Run a pooled std::function slot (tests, custom scenarios). */
    Callback,
    /** A memory chunk reached its engine: IpEngine::onDataArrived. */
    DataArrived,
    /** An engine's last chunk finished computing: IpEngine::onRunDone. */
    RunDone,
};

/**
 * The event queue. Components schedule work at absolute times; run()
 * drains events in (time, insertion-order) order.
 */
class EventQueue
{
  public:
    /** Callback type executed when a generic event fires. */
    using Callback = std::function<void()>;

    EventQueue();

    /** @return The current simulated time (seconds). */
    double now() const { return now_; }

    /**
     * Schedule @p fn at absolute time @p when.
     *
     * @param when Absolute simulated time; must be >= now().
     * @param fn   Callback to run.
     */
    void schedule(double when, Callback fn);

    /** @name Typed hot-path events (no allocation, no closure).
     * Defined inline below so engine code schedules without a call
     * across translation units. */
    /** @{ */
    /** Chunk data arrival: @p bytes with miss flag @p was_miss. */
    void scheduleDataArrived(double when, IpEngine *engine,
                             double bytes, bool was_miss)
    {
        push(when, EventKind::DataArrived, engine, bytes, was_miss);
    }

    /** Completion of an engine's run (batched or event-driven). */
    void scheduleRunDone(double when, IpEngine *engine)
    {
        push(when, EventKind::RunDone, engine, 0.0, false);
    }
    /** @} */

    /**
     * Run until the queue is empty.
     *
     * @return The time of the last executed event (== now()).
     */
    double run();

    /** @return True if no events are pending. Scans the calendar
     * rather than maintaining a per-event counter; called off the hot
     * path (tests, post-run checks). */
    bool empty() const
    {
        if (!overflow_.empty())
            return false;
        for (size_t i = cur_; i < numBuckets_; ++i) {
            size_t pending = buckets_[i].size();
            if (i == cur_)
                pending -= head_;
            if (pending != 0)
                return false;
        }
        return true;
    }

    /** @return Number of events executed so far. */
    uint64_t eventsExecuted() const { return executed_; }

    /**
     * @return Number of scheduled events whose storage was recycled
     * from pooled bucket capacity rather than freshly allocated
     * (total schedules minus schedules that grew a tier); in steady
     * state this approaches all of them.
     */
    uint64_t eventsPooled() const { return nextSeq_ - allocs_; }

    /** Discard all pending events and reset time to zero. Pooled
     * storage (bucket and slot capacity) is retained, so back-to-back
     * runs schedule without allocating. */
    void reset();

  private:
    /** One pending event: a POD record, 32 bytes (four fit per cache
     * line). `meta` packs seq(48) | kind(8) | flag(1) so tie-breaking
     * compares one word: seq occupies the high bits, so among
     * same-time events meta order equals seq order. The payload
     * double `a` carries bytes (DataArrived) or the callback slot
     * index (Callback — doubles hold integers exactly far past the
     * slot range). 48-bit seqs wrap after
     * 2.8e14 schedules — beyond any plausible run. */
    struct Event {
        double when;
        double a;         // bytes or callback slot index
        IpEngine *engine; // typed-event receiver
        uint64_t meta;    // (seq << 16) | (kind << 8) | flag
    };

    static uint64_t
    packMeta(uint64_t seq, EventKind kind, bool flag)
    {
        return (seq << 16) | (static_cast<uint64_t>(kind) << 8) |
               (flag ? 1u : 0u);
    }

    static EventKind
    kindOf(const Event &ev)
    {
        return static_cast<EventKind>((ev.meta >> 8) & 0xFF);
    }

    static bool
    earlier(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.meta < b.meta;
    }

    inline void push(double when, EventKind kind, IpEngine *engine,
                     double a, bool flag);
    inline void pushInto(std::vector<Event> &dest, const Event &ev);
    void insertSorted(std::vector<Event> &bucket, const Event &ev);
    /** Advance cursors until the next event is at the drain point.
     * @return False when the queue is empty. */
    bool prepare();
    void dispatch(const Event &ev);
    void rebase();

    // Calendar tier: one epoch of equal-width buckets starting at
    // base_; bucket cur_ is sorted ascending and drains via head_.
    // Only the first numBuckets_ entries of buckets_ belong to the
    // current epoch (the vector keeps its high-water capacity).
    std::vector<std::vector<Event>> buckets_;
    size_t numBuckets_;   // buckets in the current epoch
    size_t cur_;          // current bucket; == numBuckets_ when spent
    size_t head_ = 0;     // drain cursor inside buckets_[cur_]
    bool curSorted_ = false;
    double base_ = 0.0;   // epoch start time
    double width_ = 0.0;  // bucket width (0 = no epoch mapped yet)
    double invWidth_ = 0.0;
    double epochEnd_ = 0.0;
    // Overflow tier: unsorted events beyond the epoch; partitioned
    // into a fresh epoch when the calendar drains.
    std::vector<Event> overflow_;

    // Pooled storage for generic callbacks.
    std::vector<Callback> fnSlots_;
    std::vector<uint32_t> freeFnSlots_;

    double now_ = 0.0;
    uint64_t nextSeq_ = 0;
    uint64_t executed_ = 0;
    uint64_t allocs_ = 0; // schedules that grew a tier's capacity
};

inline void
EventQueue::pushInto(std::vector<Event> &dest, const Event &ev)
{
    if (dest.size() == dest.capacity())
        ++allocs_;
    dest.push_back(ev);
}

inline void
EventQueue::push(double when, EventKind kind, IpEngine *engine,
                 double a, bool flag)
{
    if (when < now_)
        fatal("cannot schedule an event in the past (when=" +
              std::to_string(when) + ", now=" + std::to_string(now_) +
              ")");
    Event ev;
    ev.when = when;
    ev.a = a;
    ev.engine = engine;
    ev.meta = packMeta(nextSeq_++, kind, flag);

    // epochEnd_ is 0 whenever no epoch is mapped or the calendar is
    // spent (event times are never negative), so one compare decides
    // the tier.
    if (when < epochEnd_) {
        double off = when - base_;
        size_t idx =
            off > 0.0 ? static_cast<size_t>(off * invWidth_) : 0;
        if (idx >= numBuckets_)
            idx = numBuckets_ - 1;
        // Events earlier than the drain bucket's range (possible for
        // times in [now, base) right after a rebase) stay correct in
        // the drain bucket: it is sorted before or while draining.
        if (idx < cur_)
            idx = cur_;
        if (idx == cur_ && curSorted_)
            insertSorted(buckets_[cur_], ev);
        else
            pushInto(buckets_[idx], ev);
    } else {
        pushInto(overflow_, ev);
    }
}

} // namespace sim
} // namespace gables

#endif // GABLES_SIM_EVENT_QUEUE_H
