/**
 * @file
 * The structured run-report artifact: a schema-versioned JSON
 * document bundling a config echo, the end-of-run summary (engines
 * and resources), model-vs-sim deltas, and the full stats-registry
 * dump. This is the machine-readable contract every downstream
 * perf/scaling tool (CI smoke checks, regression trackers, plotting)
 * consumes, so the layer is deliberately independent of the
 * simulator types: callers fill plain rows.
 */

#ifndef GABLES_TELEMETRY_REPORT_H
#define GABLES_TELEMETRY_REPORT_H

#include <ostream>
#include <string>
#include <vector>

namespace gables {

class JsonWriter;

namespace telemetry {

class SpanTracer;
class StatsRegistry;

/**
 * Builder for the run-report JSON. Sections are optional: only what
 * was filled in is emitted, but the schema header, generator,
 * subject, and config echo are always present.
 */
class RunReport
{
  public:
    /** Bump when the JSON layout changes incompatibly. */
    static constexpr int kSchemaVersion = 1;
    /** The schema identifier emitted under "schema"."name". */
    static constexpr const char *kSchemaName = "gables-run-report";

    /** One engine's end-of-run summary. */
    struct EngineRow {
        std::string name;
        double ops = 0.0;
        double bytes = 0.0;
        double missBytes = 0.0;
        double opsPerSec = 0.0;
    };

    /** One resource's end-of-run summary. */
    struct ResourceRow {
        std::string name;
        double bytes = 0.0;
        double busySeconds = 0.0;
        double utilization = 0.0;
    };

    /** One analytic-model-vs-simulation comparison. */
    struct DeltaRow {
        std::string name;
        double modelOpsPerSec = 0.0;
        double simOpsPerSec = 0.0;

        /** @return 100 * (sim - model) / model (0 if model is 0). */
        double deltaPercent() const;
    };

    /**
     * @param generator Tool that produced the report ("gables sim").
     * @param subject   What was measured (the SoC name).
     */
    RunReport(std::string generator, std::string subject);

    /** @name Config echo (emitted in insertion order). */
    /** @{ */
    void addConfig(const std::string &key, const std::string &value);
    void addConfig(const std::string &key, double value);
    void addConfig(const std::string &key, long value);
    /** @} */

    /** Record the simulated wall-clock duration (seconds). */
    void setDuration(double seconds);

    /** Append an engine summary row. */
    void addEngine(const EngineRow &row) { engines_.push_back(row); }

    /** Append a resource summary row. */
    void addResource(const ResourceRow &row)
    {
        resources_.push_back(row);
    }

    /** Append a model-vs-sim delta row. */
    void addDelta(const std::string &name, double model_ops_per_sec,
                  double sim_ops_per_sec);

    /**
     * Attach the stats registry whose dump becomes the "stats"
     * section; must outlive write().
     */
    void setRegistry(const StatsRegistry *registry)
    {
        registry_ = registry;
    }

    /**
     * Attach the span tracer whose snapshot becomes the "profile"
     * section (omitted when nullptr); must outlive write(). Passing
     * SpanTracer::active() directly is safe: it is nullptr whenever
     * --profile is off, keeping the report byte-identical.
     */
    void setProfile(const SpanTracer *tracer) { tracer_ = tracer; }

    /** Emit the report JSON (pretty-printed, then a newline) to
     * @p out. */
    void write(std::ostream &out) const;

    /** Write the report object at @p json's position (no newline). */
    void write(JsonWriter &json) const;

  private:
    struct ConfigItem {
        std::string key;
        bool isNumber;
        std::string str;
        double num;
    };

    std::string generator_;
    std::string subject_;
    std::vector<ConfigItem> config_;
    bool hasDuration_ = false;
    double duration_ = 0.0;
    std::vector<EngineRow> engines_;
    std::vector<ResourceRow> resources_;
    std::vector<DeltaRow> deltas_;
    const StatsRegistry *registry_ = nullptr;
    const SpanTracer *tracer_ = nullptr;
};

} // namespace telemetry
} // namespace gables

#endif // GABLES_TELEMETRY_REPORT_H
