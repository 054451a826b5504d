/**
 * @file
 * Deterministic pseudo-random number generation for property tests,
 * randomized model cross-checks, and synthetic workload generation.
 *
 * Uses splitmix64 for seeding and xoshiro256** for the stream; both
 * are tiny, fast, and fully reproducible across platforms (unlike
 * std::default_random_engine or distribution implementations, which
 * vary by standard library).
 */

#ifndef GABLES_UTIL_RNG_H
#define GABLES_UTIL_RNG_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gables {

/**
 * xoshiro256** PRNG with deterministic splitmix64 seeding.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** @return The next raw 64-bit value. */
    uint64_t next();

    /** @return A uniform double in [0, 1). */
    double uniform();

    /** @return A uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /**
     * @return A log-uniform double in [lo, hi) — uniform in
     * log-space, useful for sampling intensities and bandwidths that
     * span orders of magnitude. One LogUniform(lo, hi) draw; loops
     * over a fixed range should build the LogUniform once instead.
     */
    double logUniform(double lo, double hi);

    /** @return A uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /**
     * @return A random point on the probability simplex of dimension
     * @p n (n non-negative values summing to 1), suitable for random
     * work-fraction vectors.
     */
    std::vector<double> simplex(size_t n);

  private:
    uint64_t s_[4];
};

/**
 * Log-uniform sampler over a fixed range [lo, hi): checks the range
 * and takes its logs once, so a draw costs one uniform() and one
 * exp. Draws are bit-identical to Rng::logUniform(lo, hi) on the
 * same stream.
 */
class LogUniform
{
  public:
    /** @param lo Positive lower bound. @param hi Upper bound, > lo. */
    LogUniform(double lo, double hi);

    /** @return The next draw from @p rng. */
    double operator()(Rng &rng) const
    {
        return std::exp(rng.uniform(logLo_, logHi_));
    }

  private:
    double logLo_;
    double logHi_;
};

} // namespace gables

#endif // GABLES_UTIL_RNG_H
