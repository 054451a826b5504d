/**
 * @file
 * A gem5-style statistics registry for the simulators: named scalar
 * counters, accumulating distributions (min/max/mean/stddev via
 * Welford's algorithm), fixed-bucket histograms, and epoch-sampled
 * time series. Components own pointers into a StatsRegistry that
 * outlives them for a run; the registry dumps itself as ordered JSON
 * for the RunReport artifact.
 *
 * Telemetry is strictly observational: attaching or detaching a
 * registry never changes simulated timing, so runs with and without
 * telemetry are bit-identical.
 */

#ifndef GABLES_TELEMETRY_STATS_H
#define GABLES_TELEMETRY_STATS_H

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace gables {

class JsonWriter;

namespace telemetry {

/** A named scalar accumulator (events, bytes, interrupts, ...). */
class Counter
{
  public:
    /** Add @p n (default one event). */
    void add(double n = 1.0) { value_ += n; }

    /** @return Accumulated value. */
    double value() const { return value_; }

    /** Zero the counter. */
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * A named last-value stat: unlike a Counter it overwrites rather
 * than accumulates — for point-in-time quantities like bytes of
 * memory currently held by an observability buffer.
 */
class Gauge
{
  public:
    /** Overwrite the value. */
    void set(double v) { value_ = v; }

    /** @return Last value set (0 after reset). */
    double value() const { return value_; }

    /** Zero the gauge. */
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * An accumulating distribution: count, sum, min, max, mean, and
 * standard deviation of every sample, in O(1) memory.
 */
class Distribution
{
  public:
    /** Record one sample (inline: the simulator samples three
     * distributions per booking). */
    void sample(double v)
    {
        ++count_;
        sum_ += v;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
        double delta = v - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (v - mean_);
    }

    /** @return Number of samples. */
    uint64_t count() const { return count_; }
    /** @return Sum of all samples. */
    double sum() const { return sum_; }
    /** @return Smallest sample (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }
    /** @return Largest sample (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }
    /** @return Arithmetic mean (0 when empty). */
    double mean() const;
    /** @return Population standard deviation (0 when empty). */
    double stddev() const;

    /** Discard all samples. */
    void reset();

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    double mean_ = 0.0;
    double m2_ = 0.0; // Welford's sum of squared deviations
};

/**
 * A fixed-bucket histogram over [lo, hi): samples below lo count as
 * underflow, at or above hi as overflow.
 */
class Histogram
{
  public:
    /**
     * @param lo       Inclusive lower bound of the first bucket.
     * @param hi       Exclusive upper bound of the last bucket, > lo.
     * @param nbuckets Number of equal-width buckets, >= 1.
     */
    Histogram(double lo, double hi, size_t nbuckets);

    /** Record one sample. */
    void sample(double v)
    {
        ++count_;
        if (v < lo_) {
            ++underflow_;
            return;
        }
        if (v >= hi_) {
            ++overflow_;
            return;
        }
        size_t i = static_cast<size_t>((v - lo_) / width_);
        if (i >= buckets_.size()) // guard the v ~ hi rounding edge
            i = buckets_.size() - 1;
        ++buckets_[i];
    }

    /** @return Number of buckets. */
    size_t numBuckets() const { return buckets_.size(); }
    /** @return Count in bucket @p i. */
    uint64_t bucket(size_t i) const { return buckets_.at(i); }
    /** @return Inclusive lower edge of bucket @p i. */
    double bucketLo(size_t i) const;
    /** @return Samples below the range. */
    uint64_t underflow() const { return underflow_; }
    /** @return Samples at or above the range. */
    uint64_t overflow() const { return overflow_; }
    /** @return Total samples including under/overflow. */
    uint64_t count() const { return count_; }

    /** Zero all buckets. */
    void reset();

  private:
    double lo_;
    double hi_;
    double width_ = 0.0; // (hi - lo) / buckets, set once
    std::vector<uint64_t> buckets_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t count_ = 0;
};

/**
 * An epoch-sampled time series: (time, value) points in sample
 * order, e.g. per-epoch utilization of a resource.
 */
class TimeSeries
{
  public:
    /** Append a point. */
    void sample(double t, double v);

    /**
     * Replace every point with (@p times[i], @p values[i]): a caller
     * that already holds a large series hands it over instead of
     * copying it point by point. The sizes must match.
     */
    void assign(std::vector<double> times, std::vector<double> values);

    /** @return Sample times in order. */
    const std::vector<double> &times() const { return times_; }
    /** @return Sample values in order. */
    const std::vector<double> &values() const { return values_; }
    /** @return Number of points. */
    size_t size() const { return times_.size(); }

    /** Discard all points. */
    void reset();

  private:
    std::vector<double> times_;
    std::vector<double> values_;
};

/**
 * The registry: owns named stats and hands out stable references.
 * Registering an existing name returns the existing stat (so a
 * component can re-attach across runs); registering it as a
 * different kind raises a located ConfigError, and a same-kind
 * re-registration with a conflicting description warns once and
 * counts in duplicateRegistrations(). Dump order is registration
 * order, so reports are deterministic.
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    /** Register (or fetch) a counter. */
    Counter &counter(const std::string &name,
                     const std::string &desc = "");

    /** Register (or fetch) a gauge. */
    Gauge &gauge(const std::string &name,
                 const std::string &desc = "");

    /** Register (or fetch) a distribution. */
    Distribution &distribution(const std::string &name,
                               const std::string &desc = "");

    /** Register (or fetch) a histogram; bounds are set on first
     * registration only. */
    Histogram &histogram(const std::string &name, double lo, double hi,
                         size_t nbuckets,
                         const std::string &desc = "");

    /** Register (or fetch) a time series. */
    TimeSeries &timeSeries(const std::string &name,
                           const std::string &desc = "");

    /** @name Lookup without registering (nullptr when absent or of
     * another kind). */
    /** @{ */
    const Counter *findCounter(const std::string &name) const;
    const Gauge *findGauge(const std::string &name) const;
    const Distribution *findDistribution(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;
    const TimeSeries *findTimeSeries(const std::string &name) const;
    /** @} */

    /** @return True if any stat is registered under @p name. */
    bool has(const std::string &name) const;

    /** @return Number of registered stats. */
    size_t size() const { return entries_.size(); }

    /** @return Same-kind re-registrations whose descriptions
     * conflicted with the original (each occurrence counts; the
     * warning itself is emitted once per name). */
    uint64_t duplicateRegistrations() const { return duplicates_; }

    /** Zero every stat's value but keep all registrations. */
    void resetValues();

    /**
     * Dump every stat, in registration order, as one JSON object
     * keyed by stat name; each value carries "kind", "desc", and the
     * kind-specific fields.
     */
    void writeJson(JsonWriter &json) const;

  private:
    enum class Kind { Counter, Gauge, Distribution, Histogram, TimeSeries };

    struct Entry {
        std::string name;
        std::string desc;
        Kind kind;
        bool dupWarned = false;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<class Gauge> gauge;
        std::unique_ptr<Distribution> distribution;
        std::unique_ptr<Histogram> histogram;
        std::unique_ptr<TimeSeries> timeSeries;
    };

    Entry *find(const std::string &name);
    const Entry *find(const std::string &name) const;
    Entry &require(const std::string &name, const std::string &desc,
                   Kind kind);

    std::vector<std::unique_ptr<Entry>> entries_;
    uint64_t duplicates_ = 0;
};

} // namespace telemetry
} // namespace gables

#endif // GABLES_TELEMETRY_STATS_H
