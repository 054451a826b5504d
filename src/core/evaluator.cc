#include "core/evaluator.h"

#include <algorithm>
#include <cmath>

#include "telemetry/span.h"
#include "util/logging.h"

namespace gables {

template <size_t W>
GablesPack<W>::GablesPack(const SocSpec &soc, const Usecase &usecase)
{
    // Per-construction only; run() stays uninstrumented — at tens of
    // millions of evals per second even a disabled span's atomic load
    // would show up in the grid benchmarks.
    GABLES_SPAN("evaluator.compile");
    checkPair(soc, usecase);

    n_ = soc.numIps();
    const size_t rows = n_ * W;
    accel_.resize(rows);
    bandwidth_.resize(rows);
    fraction_.resize(rows);
    intensity_.resize(rows);
    intensityEff_.resize(rows);
    dataBytes_.resize(rows);
    time_.resize(rows);
    ppeak_.fill(soc.ppeak());
    bpeak_.fill(soc.bpeak());
    for (size_t i = 0; i < n_; ++i) {
        const IpSpec &ip = soc.ip(i);
        const IpWork &work = usecase.at(i);
        const double eff = work.fraction > 0.0 ? work.intensity : 1.0;
        for (size_t w = 0; w < W; ++w) {
            const size_t r = i * W + w;
            accel_[r] = ip.acceleration;
            bandwidth_[r] = ip.bandwidth;
            fraction_[r] = work.fraction;
            intensity_[r] = work.intensity;
            intensityEff_[r] = eff;
        }
    }
    dirtyLo_ = 0;
    dirtyHi_ = n_;
}

// setLanes() lives here (not inline in the header) so it compiles
// under the evaluator vector flags: validation runs as a scalar
// lane-order loop (same first-failure message as set()), then the
// stores vectorize.
template <size_t W>
void
GablesPack<W>::setLanes(Param p, const double *values, size_t cnt)
{
    const size_t i = p.ip;
    if (p.perIp())
        checkIp(i);
    checkCount(cnt);
    const size_t o = i * W;
    switch (p.kind) {
    case Param::Kind::Ppeak:
        for (size_t w = 0; w < cnt; ++w)
            checkPpeakLane(w, values[w]);
        for (size_t w = 0; w < cnt; ++w)
            ppeak_[w] = values[w];
        markDirty(0, n_);
        return;
    case Param::Kind::Bpeak:
        for (size_t w = 0; w < cnt; ++w)
            checkBpeak(kOwner, values[w]);
        // Memory time is derived at run(), so no row dirtying.
        for (size_t w = 0; w < cnt; ++w)
            bpeak_[w] = values[w];
        return;
    case Param::Kind::Acceleration: {
        for (size_t w = 0; w < cnt; ++w)
            checkAcceleration(kOwner, i, values[w], ppeak_[w]);
        double *__restrict__ ac = accel_.data() + o;
        for (size_t w = 0; w < cnt; ++w)
            ac[w] = values[w];
        break;
    }
    case Param::Kind::IpBandwidth: {
        for (size_t w = 0; w < cnt; ++w)
            checkIpBandwidth(kOwner, i, values[w]);
        double *__restrict__ bw = bandwidth_.data() + o;
        for (size_t w = 0; w < cnt; ++w)
            bw[w] = values[w];
        break;
    }
    case Param::Kind::Fraction: {
        for (size_t w = 0; w < cnt; ++w)
            checkWork(kOwner, i, values[w], intensity_[o + w]);
        double *__restrict__ fr = fraction_.data() + o;
        double *__restrict__ ie = intensityEff_.data() + o;
        const double *__restrict__ in = intensity_.data() + o;
#pragma omp simd
        for (size_t w = 0; w < cnt; ++w) {
            fr[w] = values[w];
            ie[w] = values[w] > 0.0 ? in[w] : 1.0;
        }
        break;
    }
    case Param::Kind::Intensity: {
        for (size_t w = 0; w < cnt; ++w)
            checkIntensity(kOwner, i, fraction_[o + w], values[w]);
        double *__restrict__ in = intensity_.data() + o;
        double *__restrict__ ie = intensityEff_.data() + o;
        const double *__restrict__ fr = fraction_.data() + o;
#pragma omp simd
        for (size_t w = 0; w < cnt; ++w) {
            in[w] = values[w];
            ie[w] = fr[w] > 0.0 ? values[w] : 1.0;
        }
        break;
    }
    }
    markDirty(i, i + 1);
}

template <size_t W>
void
GablesPack<W>::run(size_t activeLanes)
{
    GABLES_ASSERT(activeLanes <= W,
                  "pack run() with more active lanes than the width");

    // Phase 1: recompute the dirty rows, with no branch or select at
    // all — the setters pre-sanitize the divisor
    // (intensityEff_) so that plain division reproduces the model's
    // branches bit-for-bit:
    //  - f == 0: eff is pinned to 1.0, so db = 0/1 = +0.0, the
    //    model's literal 0.0 (dividing by a raw idle-lane intensity
    //    <= 0 would give -0.0 or NaN); ct = 0/peak = +0, tt = 0/b =
    //    +0, time = +0.
    //  - Ii = inf with f > 0: db = f/inf = +0.0, exactly the model's
    //    isinf() special case.
    // Keeping the body straight-line arithmetic is what lets the
    // compiler turn a row into a handful of vector ops; a select
    // over a division defeats GCC's vectorizer at -O3 (the
    // fully-unrolled loop is never if-converted). The __restrict__
    // locals matter just as much: without them GCC cannot prove the
    // derived-row stores don't alias the parameter-row loads, and
    // SLP on the unrolled body silently falls back to scalar
    // divisions.
    if (dirtyLo_ < dirtyHi_) {
        const double *__restrict__ fr = fraction_.data();
        const double *__restrict__ ac = accel_.data();
        const double *__restrict__ ie = intensityEff_.data();
        const double *__restrict__ bw = bandwidth_.data();
        double *__restrict__ db_row = dataBytes_.data();
        double *__restrict__ t_row = time_.data();
        const size_t n = n_;
        const size_t hi = dirtyHi_;
        for (size_t i = dirtyLo_; i < hi; ++i) {
            const size_t o = i * W;
            // The pragma (a no-op unless built with -fopenmp-simd)
            // keeps the loop in loop form for the vectorizer; GCC's
            // early complete unrolling otherwise leaves straight-
            // line code the SLP pass refuses to vectorize.
#pragma omp simd
            for (size_t w = 0; w < W; ++w) {
                const double f = fr[o + w];
                // Same product SocSpec::ipPeakPerf() evaluates, so
                // the quotient matches the model's compute time.
                const double ct = f / (ac[o + w] * ppeak_[w]);
                const double db = f / ie[o + w];
                const double tt = db / bw[o + w];
                db_row[o + w] = db;
                t_row[o + w] = std::max(tt, ct);
            }
        }

        // Phase 2: reductions, cached until the next row mutation, so
        // a Bpeak-only grid (whose mutations dirty no row) skips both
        // phases. i outer / w inner keeps every lane's chain in IP
        // index order — the model's operands in the model's order,
        // vectorized across lanes only.
        std::array<double, W> total{};
        std::array<double, W> maxt{};
        for (size_t i = 0; i < n; ++i) {
            const size_t o = i * W;
#pragma omp simd
            for (size_t w = 0; w < W; ++w)
                total[w] += db_row[o + w];
#pragma omp simd
            for (size_t w = 0; w < W; ++w)
                maxt[w] = std::max(maxt[w], t_row[o + w]);
        }
        totalBytes_ = total;
        maxIpTime_ = maxt;
        dirtyLo_ = n;
        dirtyHi_ = 0;
    }

    // Finalization: the only terms that depend on Bpeak, recomputed
    // every run() from the cached reductions.
    std::array<double, W> crit{};
#pragma omp simd
    for (size_t w = 0; w < W; ++w) {
        crit[w] = std::max(maxIpTime_[w], totalBytes_[w] / bpeak_[w]);
        att_[w] = 1.0 / crit[w];
    }
    for (size_t w = 0; w < activeLanes; ++w)
        GABLES_ASSERT(crit[w] > 0.0, "usecase produced zero total time; "
                                     "Ppeak infinite?");

    evals_ += activeLanes;
}

template <size_t W>
int
GablesPack<W>::bottleneckIp(size_t lane) const
{
    checkLane(lane);
    GABLES_ASSERT(dirtyLo_ >= dirtyHi_, "pack read before run()");
    const double mem = totalBytes_[lane] / bpeak_[lane];
    const double max_time = std::max(maxIpTime_[lane], mem);
    if (mem >= max_time)
        return -1;
    for (size_t i = 0; i < n_; ++i) {
        if (time_[i * W + lane] >= max_time)
            return static_cast<int>(i);
    }
    return -1; // Unreachable: max_time is one of the IP times.
}

template <size_t W>
void
GablesPack<W>::paramSums(double *accelSums, double *bwSums) const
{
    const double *__restrict__ ac = accel_.data();
    const double *__restrict__ bw = bandwidth_.data();
    double *__restrict__ sa = accelSums;
    double *__restrict__ sb = bwSums;
#pragma omp simd
    for (size_t w = 0; w < W; ++w) {
        sa[w] = 0.0;
        sb[w] = 0.0;
    }
    for (size_t i = 0; i < n_; ++i) {
        const size_t o = i * W;
#pragma omp simd
        for (size_t w = 0; w < W; ++w) {
            sa[w] += ac[o + w];
            sb[w] += bw[o + w];
        }
    }
}

template class GablesPack<1>;
template class GablesPack<kGridWidth>;

} // namespace gables
