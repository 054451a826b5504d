#include "serve/cache.h"

#include <cstring>

#include "util/logging.h"

namespace gables {
namespace serve {

namespace {

void
appendRaw(std::string &key, double v)
{
    char raw[sizeof(double)];
    std::memcpy(raw, &v, sizeof(double));
    key.append(raw, sizeof(double));
}

void
appendName(std::string &key, const std::string &name)
{
    key += name;
    key += '\0';
}

} // namespace

std::string
cacheKey(const SocSpec &soc, const Usecase &usecase)
{
    // An exact structural encoding: names NUL-terminated, doubles as
    // raw bytes, so two pairs share a key iff every name matches and
    // every parameter is bit-identical. Packing bytes instead of
    // serializing JSON keeps key construction off the per-request
    // critical path (~50x cheaper than a round-trip format).
    std::string key;
    key.reserve(64 + 24 * (soc.numIps() + usecase.numIps()));
    appendName(key, soc.name());
    appendRaw(key, soc.ppeak());
    appendRaw(key, soc.bpeak());
    for (const IpSpec &ip : soc.ips()) {
        appendName(key, ip.name);
        appendRaw(key, ip.acceleration);
        appendRaw(key, ip.bandwidth);
    }
    key += '\n';
    appendName(key, usecase.name());
    for (const IpWork &w : usecase.work()) {
        appendRaw(key, w.fraction);
        appendRaw(key, w.intensity);
    }
    return key;
}

EvaluatorCache::EvaluatorCache(size_t capacity)
    : capacity_(capacity)
{
    GABLES_ASSERT(capacity >= 1, "cache capacity must be >= 1");
}

size_t
EvaluatorCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

std::shared_ptr<EvaluatorCache::Entry>
EvaluatorCache::acquire(const SocSpec &soc, const Usecase &usecase,
                        bool *hit)
{
    std::string key = cacheKey(soc, usecase);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            hits_.fetch_add(1);
            if (hit)
                *hit = true;
            return lru_.front().entry;
        }
    }
    // Evaluate outside the cache lock: the pair rule may throw, and a
    // large pair should not stall concurrent hits.
    auto entry = std::make_shared<Entry>(soc, usecase);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        // A concurrent miss on the same pair beat us; use theirs so
        // repeat requests keep sharing one entry.
        lru_.splice(lru_.begin(), lru_, it->second);
        hits_.fetch_add(1);
        if (hit)
            *hit = true;
        return lru_.front().entry;
    }
    misses_.fetch_add(1);
    if (hit)
        *hit = false;
    lru_.push_front(Slot{key, entry});
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        evictions_.fetch_add(1);
    }
    return entry;
}

} // namespace serve
} // namespace gables
