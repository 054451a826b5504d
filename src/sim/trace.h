/**
 * @file
 * Execution tracing for the simulators: every service interval on
 * every bandwidth resource can be recorded and exported in the
 * Chrome Trace Event Format, so a pipeline run can be inspected
 * visually in chrome://tracing or Perfetto — the closest thing to
 * the waveforms SoC performance teams actually stare at.
 */

#ifndef GABLES_SIM_TRACE_H
#define GABLES_SIM_TRACE_H

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace gables {
namespace sim {

/** One recorded service interval. */
struct TraceEvent {
    /** Resource (track) name. */
    std::string track;
    /** Event label (defaults to the track name). */
    std::string label;
    /** Service start time (simulated seconds). */
    double start = 0.0;
    /** Service duration (seconds). */
    double duration = 0.0;
};

/** One sample on a counter track (queue depth, bandwidth, ...). */
struct CounterEvent {
    /** Counter track name. */
    std::string track;
    /** Sample time (simulated seconds). */
    double time = 0.0;
    /** Counter value at that time. */
    double value = 0.0;
};

/**
 * Collects service intervals and counter samples and exports them.
 */
class TraceRecorder
{
  public:
    /** Record one interval. */
    void record(const std::string &track, double start,
                double duration, const std::string &label = "");

    /**
     * Record one counter sample; Perfetto renders each counter track
     * as a stepped area chart alongside the slices.
     */
    void counter(const std::string &track, double time, double value);

    /** @return All events in recording order. */
    const std::vector<TraceEvent> &events() const { return events_; }

    /** @return All counter samples in recording order. */
    const std::vector<CounterEvent> &counterEvents() const
    {
        return counters_;
    }

    /** @return Events on one track, in recording order. */
    std::vector<TraceEvent> track(const std::string &name) const;

    /** Discard all recorded events and counter samples. */
    void clear()
    {
        events_.clear();
        counters_.clear();
    }

    /**
     * Write the Chrome Trace Event Format JSON: one complete-event
     * ("ph":"X") per interval with one tid per track, plus one
     * counter-event ("ph":"C") per counter sample. Loadable by
     * chrome://tracing and Perfetto.
     */
    void writeChromeTrace(std::ostream &out) const;

  private:
    std::vector<TraceEvent> events_;
    std::vector<CounterEvent> counters_;
};

} // namespace sim
} // namespace gables

#endif // GABLES_SIM_TRACE_H
