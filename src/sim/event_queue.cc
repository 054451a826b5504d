#include "sim/event_queue.h"

#include <algorithm>

#include "sim/ip_engine.h"
#include "util/logging.h"

namespace gables {
namespace sim {

namespace {

/** Minimum calendar size: enough buckets that the typical in-flight
 * population (tens of events) spreads to a couple per bucket. */
constexpr size_t kMinBuckets = 128;

/** Cap on the adaptive bucket count; beyond this, buckets simply
 * hold a few more events each (still sorted lazily per bucket). */
constexpr size_t kMaxBuckets = size_t(1) << 16;

} // namespace

EventQueue::EventQueue()
    : buckets_(kMinBuckets), numBuckets_(kMinBuckets),
      cur_(kMinBuckets)
{}

void
EventQueue::insertSorted(std::vector<Event> &bucket, const Event &ev)
{
    if (bucket.size() == bucket.capacity())
        ++allocs_;
    if (bucket.empty() || !earlier(ev, bucket.back())) {
        bucket.push_back(ev);
        return;
    }
    bucket.insert(std::upper_bound(bucket.begin() +
                                       static_cast<ptrdiff_t>(head_),
                                   bucket.end(), ev, earlier),
                  ev);
}

void
EventQueue::schedule(double when, Callback fn)
{
    uint32_t slot;
    if (!freeFnSlots_.empty()) {
        slot = freeFnSlots_.back();
        freeFnSlots_.pop_back();
        fnSlots_[slot] = std::move(fn);
    } else {
        slot = static_cast<uint32_t>(fnSlots_.size());
        fnSlots_.push_back(std::move(fn));
    }
    push(when, EventKind::Callback, nullptr,
         static_cast<double>(slot), false);
}

bool
EventQueue::prepare()
{
    for (;;) {
        if (cur_ < numBuckets_) {
            std::vector<Event> &bucket = buckets_[cur_];
            if (head_ < bucket.size()) {
                if (!curSorted_) {
                    std::sort(bucket.begin(), bucket.end(), earlier);
                    curSorted_ = true;
                }
                return true;
            }
            bucket.clear();
            head_ = 0;
            curSorted_ = false;
            ++cur_;
            // Calendar spent: unmap the epoch so push() sends new
            // events to the overflow tier with a single compare.
            if (cur_ == numBuckets_) {
                width_ = invWidth_ = 0.0;
                epochEnd_ = 0.0;
            }
            continue;
        }
        if (overflow_.empty())
            return false;
        rebase();
    }
}

void
EventQueue::rebase()
{
    double lo = overflow_.front().when;
    double hi = lo;
    for (const Event &ev : overflow_) {
        lo = std::min(lo, ev.when);
        hi = std::max(hi, ev.when);
    }
    // Scale the bucket count to the pending population so this one
    // O(n) partition absorbs the entire overflow: the epoch spans
    // twice the population's time range (the second half catches
    // events scheduled while the first drains), leaving a couple of
    // events per bucket. A fixed bucket count would cover only a
    // sliver of a large population's span and re-walk the remaining
    // overflow every epoch — quadratic for big pre-scheduled batches.
    // Degenerate spans (all events simultaneous, or a width that
    // underflows against the epoch base) collapse to sorted buckets
    // of ties.
    size_t want = overflow_.size();
    want = std::min(std::max(want, kMinBuckets), kMaxBuckets);
    if (buckets_.size() < want)
        buckets_.resize(want);
    numBuckets_ = want;
    double width = 2.0 * (hi - lo) / static_cast<double>(want);
    if (!(width > 0.0) || lo + width == lo)
        width = 1.0;
    base_ = lo;
    width_ = width;
    invWidth_ = 1.0 / width;
    epochEnd_ = lo + width * static_cast<double>(want);
    cur_ = 0;
    head_ = 0;
    curSorted_ = false;

    size_t keep = 0;
    for (const Event &ev : overflow_) {
        if (ev.when < epochEnd_) {
            double off = ev.when - base_;
            size_t idx =
                off > 0.0 ? static_cast<size_t>(off * invWidth_) : 0;
            if (idx >= numBuckets_)
                idx = numBuckets_ - 1;
            buckets_[idx].push_back(ev);
        } else {
            overflow_[keep++] = ev;
        }
    }
    overflow_.resize(keep);
}

void
EventQueue::dispatch(const Event &ev)
{
    switch (kindOf(ev)) {
      case EventKind::Callback: {
          uint32_t slot = static_cast<uint32_t>(ev.a);
          Callback fn = std::move(fnSlots_[slot]);
          fnSlots_[slot] = nullptr;
          freeFnSlots_.push_back(slot);
          fn();
          break;
      }
      case EventKind::DataArrived:
          ev.engine->onDataArrived(ev.a, (ev.meta & 1) != 0);
          break;
      case EventKind::RunDone:
          ev.engine->onRunDone();
          break;
    }
}

double
EventQueue::run()
{
    while (prepare()) {
        Event ev = buckets_[cur_][head_++];
        now_ = ev.when;
        ++executed_;
        dispatch(ev);
    }
    return now_;
}

void
EventQueue::reset()
{
    for (std::vector<Event> &bucket : buckets_)
        bucket.clear();
    overflow_.clear();
    fnSlots_.clear();
    freeFnSlots_.clear();
    cur_ = numBuckets_;
    head_ = 0;
    curSorted_ = false;
    base_ = width_ = invWidth_ = epochEnd_ = 0.0;
    now_ = 0.0;
    nextSeq_ = 0;
    executed_ = 0;
    allocs_ = 0;
}

} // namespace sim
} // namespace gables
