/**
 * @file
 * Self-profiling span tracing for the tool itself: where did *gables*
 * (not the simulated SoC) spend its wall-clock time? A SpanTracer
 * owns per-thread span stacks; ScopedSpan (or the GABLES_SPAN macro)
 * opens a named span on construction and closes it on destruction.
 * Spans nest into a hierarchy per thread; at snapshot time every
 * thread's tree is merged by span path into one aggregate profile
 * (count, total and self wall seconds per node), which is emitted as
 * the "profile" subtree of a RunReport and exportable as Perfetto
 * "ph":"X" duration events.
 *
 * Cost discipline mirrors the stats registry: with no tracer active
 * a ScopedSpan is one relaxed atomic load and a branch — outputs are
 * bit-identical with profiling attached or detached, and the hot
 * analytic paths (GablesPack::run(), the event queue
 * drain) are deliberately left uninstrumented.
 *
 * Threading contract: begin/end touch only the calling thread's
 * state, so concurrent spans on pool workers need no locking after
 * the first (mutex-guarded) per-thread registration. Snapshots
 * (writeProfile / events / summaryTable) may run while other
 * threads hold *no* open spans — in practice after every transient
 * worker pool has been joined, which is when drivers write reports.
 */

#ifndef GABLES_TELEMETRY_SPAN_H
#define GABLES_TELEMETRY_SPAN_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gables {

class JsonWriter;

namespace telemetry {

/** One aggregated node of the merged profile tree. */
struct ProfileNode {
    /** Span name, e.g. "sweep.grid". */
    std::string name;
    /** Times the span was entered (open spans count once). */
    uint64_t count = 0;
    /** Wall seconds inside the span, children included; open spans
     * contribute their elapsed-so-far at snapshot time. */
    double totalSeconds = 0.0;
    /** totalSeconds minus the children's totals, clamped to >= 0. */
    double selfSeconds = 0.0;
    /** Child spans in first-entry order. */
    std::vector<ProfileNode> children;
};

/** One recorded span instance, for Perfetto "ph":"X" export. */
struct SpanEvent {
    /** Leaf span name. */
    std::string name;
    /** Dotted path from the thread's outermost span. */
    std::string path;
    /** Registration index of the recording thread (0 = first). */
    uint32_t thread = 0;
    /** Seconds since the tracer was created. */
    double startSeconds = 0.0;
    /** Span duration in seconds. */
    double durationSeconds = 0.0;
};

/**
 * The tracer: owns every thread's span stack and aggregation tree.
 * One tracer is installed process-wide with setActive(); ScopedSpan
 * no-ops when none is. Thread state is registered lazily on a
 * thread's first span and owned by the tracer, so worker threads may
 * exit (pools are transient) without losing their contribution.
 */
class SpanTracer
{
  public:
    /** Per-thread event-log cap; further spans still aggregate but
     * are dropped from the Perfetto export (droppedEvents counts). */
    static constexpr size_t kMaxEventsPerThread = 1 << 16;

    SpanTracer();
    ~SpanTracer();
    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /** @return The process-wide active tracer, or nullptr. */
    static SpanTracer *active();

    /**
     * Install @p tracer as the process-wide active tracer (nullptr
     * deactivates). The tracer must outlive every span opened while
     * it is active.
     */
    static void setActive(SpanTracer *tracer);

    /** Open a span named @p name on the calling thread. */
    void begin(const char *name);

    /** Close the calling thread's innermost open span. */
    void end();

    /** @return Seconds since the tracer was created. */
    double wallSeconds() const;

    /** @return Number of threads that ever recorded a span. */
    size_t threadCount() const;

    /** @return Span instances dropped from the event log (the
     * aggregate tree is never truncated). */
    uint64_t droppedEvents() const;

    /**
     * Merge every thread's tree into one aggregate profile. The
     * returned root is synthetic (empty name); its children are the
     * outermost spans. Open spans contribute elapsed-so-far, so a
     * driver's root span totals track wall time even when the
     * snapshot happens inside it.
     */
    ProfileNode snapshot() const;

    /**
     * Emit the "profile" subtree consumed by RunReport: wall_s,
     * threads, events_dropped, and the recursive spans array
     * (name/count/total_s/self_s/children).
     */
    void writeProfile(JsonWriter &json) const;

    /** @return All recorded span instances, thread by thread in
     * registration order, recording order within a thread. */
    std::vector<SpanEvent> events() const;

    /** @return A fixed-width human summary of snapshot(), one line
     * per node, indented by depth. */
    std::string summaryTable() const;

  private:
    friend class ScopedSpan;

    struct Node {
        std::string name;
        Node *parent = nullptr;
        uint64_t count = 0;
        double totalSeconds = 0.0;
        std::vector<std::unique_ptr<Node>> children;
    };

    struct OpenSpan {
        Node *node;
        double startSeconds;
    };

    struct RecordedSpan {
        const Node *node;
        double startSeconds;
        double durationSeconds;
    };

    struct ThreadState {
        uint32_t index = 0;
        Node root; // synthetic; name stays empty
        std::vector<OpenSpan> stack;
        std::vector<RecordedSpan> log;
        uint64_t dropped = 0;
    };

    ThreadState &threadState();
    double now() const;

    const uint64_t id_;
    const std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_; // guards threads_ registration
    std::vector<std::unique_ptr<ThreadState>> threads_;
};

/**
 * RAII span handle: opens a span on the active tracer (if any) at
 * construction and closes it at destruction. The name pointer is
 * only read during construction.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name) : tracer_(SpanTracer::active())
    {
        if (tracer_ != nullptr)
            tracer_->begin(name);
    }

    ~ScopedSpan()
    {
        if (tracer_ != nullptr)
            tracer_->end();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanTracer *tracer_;
};

} // namespace telemetry
} // namespace gables

/** @name Span convenience macro (unique local per line). */
/** @{ */
#define GABLES_SPAN_CONCAT2(a, b) a##b
#define GABLES_SPAN_CONCAT(a, b) GABLES_SPAN_CONCAT2(a, b)
#define GABLES_SPAN(name)                                              \
    ::gables::telemetry::ScopedSpan GABLES_SPAN_CONCAT(               \
        gables_span_, __LINE__)(name)
/** @} */

#endif // GABLES_TELEMETRY_SPAN_H
