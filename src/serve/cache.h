/**
 * @file
 * LRU cache of compiled single-point GablesPack instances for the
 * daemon.
 *
 * Compiling a (SocSpec, Usecase) pair validates both specs and
 * derives every per-IP timing lane; at serving rates that cost — and
 * the allocations behind it — dominates a cached evaluation. The
 * cache keys entries by cacheKey(): every name and the raw bytes of
 * every double of the pair, so two requests share an entry iff
 * their names match and their numbers parse to the same bits,
 * however they were spelled. It evicts least-recently-used entries
 * beyond a fixed capacity.
 *
 * Thread-safety: acquire() is safe from any thread. A pack is mutable
 * per-evaluation state, so each entry carries its own
 * mutex; callers lock it for the duration of their evaluation
 * (Entry::lock()). Entries are handed out as shared_ptr so an evicted
 * entry stays alive for requests still using it.
 */

#ifndef GABLES_SERVE_CACHE_H
#define GABLES_SERVE_CACHE_H

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/evaluator.h"
#include "core/soc_spec.h"
#include "core/usecase.h"

namespace gables {
namespace serve {

/** @return The canonical cache key of a (SocSpec, Usecase) pair. */
std::string cacheKey(const SocSpec &soc, const Usecase &usecase);

/**
 * A fixed-capacity LRU cache of compiled evaluators.
 */
class EvaluatorCache
{
  public:
    /** One cached compilation. */
    struct Entry {
        Entry(const SocSpec &s, const Usecase &u)
            : soc(s), usecase(u), evaluator(s, u)
        {}

        const SocSpec soc;
        const Usecase usecase;
        GablesPack<1> evaluator;

        /** Serializes evaluations on this entry's mutable state. */
        std::mutex mutex;
    };

    /** @param capacity Maximum resident entries; >= 1. */
    explicit EvaluatorCache(size_t capacity);

    /**
     * Fetch the compiled evaluator for the pair, compiling and
     * inserting (with LRU eviction) on miss.
     *
     * @param soc     Hardware inputs (validated on compile).
     * @param usecase Software inputs (validated on compile).
     * @param hit     Optional out: true when served from cache.
     * @return The shared entry; lock entry->mutex while evaluating.
     * @throws FatalError when the pair fails validation (nothing is
     *         inserted).
     */
    std::shared_ptr<Entry> acquire(const SocSpec &soc,
                                   const Usecase &usecase,
                                   bool *hit = nullptr);

    /** @return Maximum resident entries. */
    size_t capacity() const { return capacity_; }

    /** @return Current resident entries. */
    size_t size() const;

    /** @name Lifetime counters (monotonic). */
    /** @{ */
    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }
    uint64_t evictions() const { return evictions_.load(); }
    /** @} */

  private:
    struct Slot {
        std::string key;
        std::shared_ptr<Entry> entry;
    };

    const size_t capacity_;

    mutable std::mutex mutex_;
    // Front = most recently used.
    std::list<Slot> lru_;
    std::unordered_map<std::string, std::list<Slot>::iterator> index_;

    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> evictions_{0};
};

} // namespace serve
} // namespace gables

#endif // GABLES_SERVE_CACHE_H
