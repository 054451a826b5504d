#include "sim/trace.h"

#include <map>

#include "util/json_writer.h"
#include "util/logging.h"

namespace gables {
namespace sim {

void
TraceRecorder::record(const std::string &track, double start,
                      double duration, const std::string &label)
{
    GABLES_ASSERT(duration >= 0.0, "negative trace duration");
    events_.push_back(
        TraceEvent{track, label.empty() ? track : label, start,
                   duration});
}

void
TraceRecorder::counter(const std::string &track, double time,
                       double value)
{
    counters_.push_back(CounterEvent{track, time, value});
}

std::vector<TraceEvent>
TraceRecorder::track(const std::string &name) const
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &e : events_) {
        if (e.track == name)
            out.push_back(e);
    }
    return out;
}

void
TraceRecorder::writeChromeTrace(std::ostream &out) const
{
    // Stable tid per track, in order of first appearance.
    std::map<std::string, int> tids;
    for (const TraceEvent &e : events_) {
        if (!tids.count(e.track))
            tids[e.track] = static_cast<int>(tids.size()) + 1;
    }

    JsonWriter json(out, false);
    json.beginObject();
    json.key("traceEvents");
    json.beginArray();
    // Name each thread (track) first.
    for (const auto &[name, tid] : tids) {
        json.beginObject();
        json.kv("name", "thread_name");
        json.kv("ph", "M");
        json.kv("pid", 1);
        json.kv("tid", tid);
        json.key("args");
        json.beginObject();
        json.kv("name", name);
        json.endObject();
        json.endObject();
    }
    for (const TraceEvent &e : events_) {
        json.beginObject();
        json.kv("name", e.label);
        json.kv("ph", "X");
        json.kv("pid", 1);
        json.kv("tid", tids[e.track]);
        json.kv("ts", e.start * 1e6);       // microseconds
        json.kv("dur", e.duration * 1e6);
        json.endObject();
    }
    // Counter tracks: Perfetto keys them by (pid, name) and plots
    // the "value" arg as a stepped area chart.
    for (const CounterEvent &c : counters_) {
        json.beginObject();
        json.kv("name", c.track);
        json.kv("ph", "C");
        json.kv("pid", 1);
        json.kv("ts", c.time * 1e6);
        json.key("args");
        json.beginObject();
        json.kv("value", c.value);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.kv("displayTimeUnit", "ns");
    json.endObject();
}

} // namespace sim
} // namespace gables
