/**
 * @file
 * LRU cache of evaluated (SocSpec, Usecase) pairs for the daemon.
 *
 * An entry is immutable: the pair and its GablesModel::evaluate()
 * result, computed once on the miss that inserts it. A repeat eval
 * renders the stored result, and a sweep compiles its own grid pack
 * from the stored pair. The cache keys entries by cacheKey(): every
 * name and the raw bytes of every double of the pair, so two requests
 * share an entry iff their names match and their numbers parse to
 * the same bits, however they were spelled. It evicts
 * least-recently-used entries beyond a fixed capacity.
 *
 * Thread-safety: acquire() is safe from any thread, and so is reading
 * an entry: nothing in it changes after construction, so readers take
 * no lock. Entries are handed out as shared_ptr so an evicted entry
 * stays alive for requests still using it.
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

#include "core/gables.h"

namespace gables {
namespace serve {

/** @return The canonical cache key of a (SocSpec, Usecase) pair. */
std::string cacheKey(const SocSpec &soc, const Usecase &usecase);

/**
 * A fixed-capacity LRU cache of evaluated pairs.
 */
class EvaluatorCache
{
  public:
    /** One cached pair and its model result. */
    struct Entry {
        /** @throws FatalError when the pair breaks the pair rule
         * (checkPair()). */
        Entry(const SocSpec &s, const Usecase &u)
            : soc(s), usecase(u), result(GablesModel::evaluate(s, u))
        {}

        const SocSpec soc;
        const Usecase usecase;
        const GablesResult result;
    };

    /** @param capacity Maximum resident entries; >= 1. */
    explicit EvaluatorCache(size_t capacity);

    /**
     * Fetch the entry for the pair, evaluating and inserting (with
     * LRU eviction) on miss.
     *
     * @param soc     Hardware inputs.
     * @param usecase Software inputs (paired on a miss).
     * @param hit     Optional out: true when served from cache.
     * @return The shared, immutable entry.
     * @throws FatalError when the pair breaks the pair rule (nothing
     *         is inserted).
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
