#include "telemetry/stats.h"

#include <cmath>

#include "util/json_writer.h"
#include "util/logging.h"
#include "util/parse.h"

namespace gables {
namespace telemetry {

double
Distribution::mean() const
{
    return count_ ? mean_ : 0.0;
}

double
Distribution::stddev() const
{
    if (count_ < 2)
        return 0.0;
    return std::sqrt(m2_ / static_cast<double>(count_));
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
    mean_ = 0.0;
    m2_ = 0.0;
}

Histogram::Histogram(double lo, double hi, size_t nbuckets)
    : lo_(lo), hi_(hi), buckets_(nbuckets, 0)
{
    if (!(hi > lo))
        fatal("histogram needs hi > lo");
    if (nbuckets < 1)
        fatal("histogram needs at least one bucket");
    width_ = (hi - lo) / static_cast<double>(nbuckets);
}

double
Histogram::bucketLo(size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

void
Histogram::reset()
{
    for (uint64_t &b : buckets_)
        b = 0;
    underflow_ = overflow_ = count_ = 0;
}

void
TimeSeries::sample(double t, double v)
{
    times_.push_back(t);
    values_.push_back(v);
}

void
TimeSeries::assign(std::vector<double> times, std::vector<double> values)
{
    if (times.size() != values.size())
        fatal("time series has " + std::to_string(times.size()) +
              " times but " + std::to_string(values.size()) + " values");
    times_ = std::move(times);
    values_ = std::move(values);
}

void
TimeSeries::reset()
{
    times_.clear();
    values_.clear();
}

StatsRegistry::Entry *
StatsRegistry::find(const std::string &name)
{
    for (auto &e : entries_) {
        if (e->name == name)
            return e.get();
    }
    return nullptr;
}

const StatsRegistry::Entry *
StatsRegistry::find(const std::string &name) const
{
    for (const auto &e : entries_) {
        if (e->name == name)
            return e.get();
    }
    return nullptr;
}

StatsRegistry::Entry &
StatsRegistry::require(const std::string &name, const std::string &desc,
                       Kind kind)
{
    auto kindName = [](Kind k) -> const char * {
        switch (k) {
        case Kind::Counter:
            return "counter";
        case Kind::Gauge:
            return "gauge";
        case Kind::Distribution:
            return "distribution";
        case Kind::Histogram:
            return "histogram";
        case Kind::TimeSeries:
            return "timeseries";
        }
        return "?";
    };
    if (Entry *e = find(name)) {
        if (e->kind != kind)
            configError(SourceLoc{"stats-registry", 0},
                        "stat '" + name + "' is already registered as "
                        "a " + kindName(e->kind) +
                        "; cannot re-register it as a " +
                        kindName(kind));
        // Re-attaching under the same name and kind is the supported
        // contract (components reconnect across runs); only flag it
        // when the descriptions disagree, which usually means two
        // unrelated components collided on a name.
        if (!desc.empty() && !e->desc.empty() && desc != e->desc) {
            ++duplicates_;
            if (!e->dupWarned) {
                e->dupWarned = true;
                warn("stat '" + name +
                     "' registered twice with conflicting "
                     "descriptions: \"" + e->desc + "\" vs \"" + desc +
                     "\" (keeping the first)");
            }
        }
        return *e;
    }
    entries_.push_back(std::make_unique<Entry>());
    Entry &e = *entries_.back();
    e.name = name;
    e.desc = desc;
    e.kind = kind;
    return e;
}

Counter &
StatsRegistry::counter(const std::string &name, const std::string &desc)
{
    Entry &e = require(name, desc, Kind::Counter);
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
StatsRegistry::gauge(const std::string &name, const std::string &desc)
{
    Entry &e = require(name, desc, Kind::Gauge);
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

Distribution &
StatsRegistry::distribution(const std::string &name,
                            const std::string &desc)
{
    Entry &e = require(name, desc, Kind::Distribution);
    if (!e.distribution)
        e.distribution = std::make_unique<Distribution>();
    return *e.distribution;
}

Histogram &
StatsRegistry::histogram(const std::string &name, double lo, double hi,
                         size_t nbuckets, const std::string &desc)
{
    Entry &e = require(name, desc, Kind::Histogram);
    if (!e.histogram)
        e.histogram = std::make_unique<Histogram>(lo, hi, nbuckets);
    return *e.histogram;
}

TimeSeries &
StatsRegistry::timeSeries(const std::string &name,
                          const std::string &desc)
{
    Entry &e = require(name, desc, Kind::TimeSeries);
    if (!e.timeSeries)
        e.timeSeries = std::make_unique<TimeSeries>();
    return *e.timeSeries;
}

const Counter *
StatsRegistry::findCounter(const std::string &name) const
{
    const Entry *e = find(name);
    return e ? e->counter.get() : nullptr;
}

const Gauge *
StatsRegistry::findGauge(const std::string &name) const
{
    const Entry *e = find(name);
    return e ? e->gauge.get() : nullptr;
}

const Distribution *
StatsRegistry::findDistribution(const std::string &name) const
{
    const Entry *e = find(name);
    return e ? e->distribution.get() : nullptr;
}

const Histogram *
StatsRegistry::findHistogram(const std::string &name) const
{
    const Entry *e = find(name);
    return e ? e->histogram.get() : nullptr;
}

const TimeSeries *
StatsRegistry::findTimeSeries(const std::string &name) const
{
    const Entry *e = find(name);
    return e ? e->timeSeries.get() : nullptr;
}

bool
StatsRegistry::has(const std::string &name) const
{
    return find(name) != nullptr;
}

void
StatsRegistry::resetValues()
{
    for (auto &e : entries_) {
        if (e->counter)
            e->counter->reset();
        if (e->gauge)
            e->gauge->reset();
        if (e->distribution)
            e->distribution->reset();
        if (e->histogram)
            e->histogram->reset();
        if (e->timeSeries)
            e->timeSeries->reset();
    }
}

void
StatsRegistry::writeJson(JsonWriter &json) const
{
    json.beginObject();
    for (const auto &e : entries_) {
        json.key(e->name);
        json.beginObject();
        if (!e->desc.empty())
            json.kv("desc", e->desc);
        switch (e->kind) {
          case Kind::Counter:
            json.kv("kind", "counter");
            json.kv("value", e->counter->value());
            break;
          case Kind::Gauge:
            json.kv("kind", "gauge");
            json.kv("value", e->gauge->value());
            break;
          case Kind::Distribution: {
            const Distribution &d = *e->distribution;
            json.kv("kind", "distribution");
            json.kv("count", static_cast<size_t>(d.count()));
            json.kv("sum", d.sum());
            json.kv("min", d.min());
            json.kv("max", d.max());
            json.kv("mean", d.mean());
            json.kv("stddev", d.stddev());
            break;
          }
          case Kind::Histogram: {
            const Histogram &h = *e->histogram;
            json.kv("kind", "histogram");
            json.kv("count", static_cast<size_t>(h.count()));
            json.kv("underflow", static_cast<size_t>(h.underflow()));
            json.kv("overflow", static_cast<size_t>(h.overflow()));
            json.key("bucket_lo");
            json.beginArray();
            for (size_t i = 0; i < h.numBuckets(); ++i)
                json.value(h.bucketLo(i));
            json.endArray();
            json.key("buckets");
            json.beginArray();
            for (size_t i = 0; i < h.numBuckets(); ++i)
                json.value(static_cast<size_t>(h.bucket(i)));
            json.endArray();
            break;
          }
          case Kind::TimeSeries: {
            const TimeSeries &s = *e->timeSeries;
            json.kv("kind", "timeseries");
            json.numberArray("t", s.times());
            json.numberArray("v", s.values());
            break;
          }
        }
        json.endObject();
    }
    json.endObject();
}

} // namespace telemetry
} // namespace gables
