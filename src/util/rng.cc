#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace gables {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

uint64_t
Rng::next()
{
    uint64_t result = rotl(s_[1] * 5, 7) * 9;
    uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // Use the top 53 bits for a uniform double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + uniform() * (hi - lo);
}

double
Rng::logUniform(double lo, double hi)
{
    return LogUniform(lo, hi)(*this);
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    GABLES_ASSERT(hi >= lo, "bad uniformInt range");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<int64_t>(next());
    // Rejection sampling to avoid modulo bias.
    uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return lo + static_cast<int64_t>(v % span);
}

LogUniform::LogUniform(double lo, double hi)
{
    GABLES_ASSERT(lo > 0.0 && hi > lo, "bad logUniform range");
    logLo_ = std::log(lo);
    logHi_ = std::log(hi);
}

std::vector<double>
Rng::simplex(size_t n)
{
    GABLES_ASSERT(n >= 1, "simplex dimension must be >= 1");
    // Sample via exponential spacings: normalize iid Exp(1) draws.
    std::vector<double> out(n);
    double sum = 0.0;
    for (auto &v : out) {
        double u = uniform();
        // Guard against log(0).
        v = -std::log(1.0 - u + 1e-18);
        sum += v;
    }
    for (auto &v : out)
        v /= sum;
    return out;
}

} // namespace gables
