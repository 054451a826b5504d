#include "util/math_util.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "util/logging.h"

namespace gables {

std::vector<double>
logspace(double lo, double hi, size_t count)
{
    GABLES_ASSERT(lo > 0.0 && hi > lo && count >= 2,
                  "bad logspace arguments");
    std::vector<double> out(count);
    double llo = std::log(lo);
    double lhi = std::log(hi);
    for (size_t i = 0; i < count; ++i) {
        double t = static_cast<double>(i) / (count - 1);
        out[i] = std::exp(llo + t * (lhi - llo));
    }
    out.front() = lo;
    out.back() = hi;
    return out;
}

std::vector<double>
logTicks(double lo, double hi)
{
    GABLES_ASSERT(lo > 0.0 && hi >= lo, "bad logTicks range");
    std::vector<double> out;
    int klo = static_cast<int>(std::floor(std::log10(lo)));
    int khi = static_cast<int>(std::ceil(std::log10(hi)));
    for (int k = klo; k <= khi; ++k)
        out.push_back(std::pow(10.0, k));
    return out;
}

double
clamp(double v, double lo, double hi)
{
    return std::min(std::max(v, lo), hi);
}

void
sortNonNegative(std::vector<double> &values)
{
    constexpr int kDigitBits = 13;
    constexpr int kPasses = (64 + kDigitBits - 1) / kDigitBits;
    constexpr size_t kBuckets = size_t{1} << kDigitBits;
    constexpr uint64_t kDigitMask = kBuckets - 1;
    // +inf's pattern; anything above it is a NaN or has the sign bit.
    constexpr uint64_t kMaxBits = 0x7FF0000000000000ULL;
    const size_t n = values.size();
    if (n == 0)
        return;

    // One read of the input counts every pass's digits and checks
    // the precondition.
    std::vector<size_t> counts(kPasses * kBuckets, 0);
    for (size_t i = 0; i < n; ++i) {
        uint64_t bits = std::bit_cast<uint64_t>(values[i]);
        if (bits > kMaxBits)
            fatal("sortNonNegative: value " + std::to_string(i) +
                  " is negative, -0.0 or NaN");
        for (int p = 0; p < kPasses; ++p)
            ++counts[p * kBuckets + ((bits >> (p * kDigitBits)) &
                                     kDigitMask)];
    }

    // Passes alternate between values and scratch, stably scattering
    // by one digit each.
    std::vector<uint64_t> scratch(n);
    const uint64_t first = std::bit_cast<uint64_t>(values[0]);
    bool inScratch = false;
    for (int p = 0; p < kPasses; ++p) {
        const int shift = p * kDigitBits;
        size_t *offset = &counts[p * kBuckets];
        if (offset[(first >> shift) & kDigitMask] == n)
            continue; // one bucket holds every value
        size_t next = 0;
        for (size_t b = 0; b < kBuckets; ++b) {
            size_t count = offset[b];
            offset[b] = next;
            next += count;
        }
        if (inScratch) {
            for (uint64_t bits : scratch)
                values[offset[(bits >> shift) & kDigitMask]++] =
                    std::bit_cast<double>(bits);
        } else {
            for (double v : values) {
                uint64_t bits = std::bit_cast<uint64_t>(v);
                scratch[offset[(bits >> shift) & kDigitMask]++] = bits;
            }
        }
        inScratch = !inScratch;
    }
    if (inScratch) {
        for (size_t i = 0; i < n; ++i)
            values[i] = std::bit_cast<double>(scratch[i]);
    }
}

} // namespace gables
