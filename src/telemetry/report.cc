#include "telemetry/report.h"

#include <optional>
#include <ostream>
#include <streambuf>
#include <string>

#include "telemetry/span.h"
#include "telemetry/stats.h"
#include "util/json_writer.h"

namespace gables {
namespace telemetry {

double
RunReport::DeltaRow::deltaPercent() const
{
    if (modelOpsPerSec == 0.0)
        return 0.0;
    return 100.0 * (simOpsPerSec - modelOpsPerSec) / modelOpsPerSec;
}

RunReport::RunReport(std::string generator, std::string subject)
    : generator_(std::move(generator)), subject_(std::move(subject))
{}

void
RunReport::addConfig(const std::string &key, const std::string &value)
{
    config_.push_back(ConfigItem{key, false, value, 0.0});
}

void
RunReport::addConfig(const std::string &key, double value)
{
    config_.push_back(ConfigItem{key, true, "", value});
}

void
RunReport::addConfig(const std::string &key, long value)
{
    addConfig(key, static_cast<double>(value));
}

void
RunReport::setDuration(double seconds)
{
    hasDuration_ = true;
    duration_ = seconds;
}

void
RunReport::addDelta(const std::string &name, double model_ops_per_sec,
                    double sim_ops_per_sec)
{
    deltas_.push_back(DeltaRow{name, model_ops_per_sec,
                               sim_ops_per_sec});
}

namespace {

/** The record/replay capture sink (see setCaptureSink()). */
std::string *g_capture_sink = nullptr;

/** Passes every byte on to a stream buffer and keeps a copy. */
class TeeBuf : public std::streambuf
{
  public:
    TeeBuf(std::streambuf *out, std::string &copy) : out_(out), copy_(copy)
    {
        copy_.clear();
    }

  protected:
    int_type overflow(int_type c) override
    {
        if (traits_type::eq_int_type(c, traits_type::eof()))
            return traits_type::not_eof(c);
        copy_.push_back(traits_type::to_char_type(c));
        return out_->sputc(traits_type::to_char_type(c));
    }

    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        copy_.append(s, static_cast<size_t>(n));
        return out_->sputn(s, n);
    }

  private:
    std::streambuf *out_;
    std::string &copy_;
};

} // namespace

std::string *
RunReport::setCaptureSink(std::string *sink)
{
    std::string *prev = g_capture_sink;
    g_capture_sink = sink;
    return prev;
}

void
RunReport::write(std::ostream &out) const
{
    // With a capture sink installed, the bytes go to @p out through a
    // tee that keeps a copy for the sink: one render either way.
    std::optional<TeeBuf> tee;
    std::optional<std::ostream> teed;
    if (g_capture_sink != nullptr) {
        tee.emplace(out.rdbuf(), *g_capture_sink);
        teed.emplace(&*tee);
    }
    std::ostream &dst = teed ? *teed : out;

    JsonWriter json(dst, true);
    write(json);
    dst << '\n';
    if (teed && !*teed)
        out.setstate(teed->rdstate());
}

void
RunReport::write(JsonWriter &json) const
{
    json.beginObject();

    json.key("schema");
    json.beginObject();
    json.kv("name", kSchemaName);
    json.kv("version", kSchemaVersion);
    json.endObject();

    json.kv("generator", generator_);
    json.kv("subject", subject_);

    json.key("config");
    json.beginObject();
    for (const ConfigItem &c : config_) {
        if (c.isNumber)
            json.kv(c.key, c.num);
        else
            json.kv(c.key, c.str);
    }
    json.endObject();

    if (hasDuration_)
        json.kv("duration_s", duration_);

    if (!engines_.empty()) {
        json.key("engines");
        json.beginArray();
        for (const EngineRow &e : engines_) {
            json.beginObject();
            json.kv("name", e.name);
            json.kv("ops", e.ops);
            json.kv("bytes", e.bytes);
            json.kv("miss_bytes", e.missBytes);
            json.kv("ops_per_sec", e.opsPerSec);
            json.endObject();
        }
        json.endArray();
    }

    if (!resources_.empty()) {
        json.key("resources");
        json.beginArray();
        for (const ResourceRow &r : resources_) {
            json.beginObject();
            json.kv("name", r.name);
            json.kv("bytes", r.bytes);
            json.kv("busy_s", r.busySeconds);
            json.kv("utilization", r.utilization);
            json.endObject();
        }
        json.endArray();
    }

    if (!deltas_.empty()) {
        json.key("model_vs_sim");
        json.beginArray();
        for (const DeltaRow &d : deltas_) {
            json.beginObject();
            json.kv("name", d.name);
            json.kv("model_ops_per_sec", d.modelOpsPerSec);
            json.kv("sim_ops_per_sec", d.simOpsPerSec);
            json.kv("delta_pct", d.deltaPercent());
            json.endObject();
        }
        json.endArray();
    }

    if (tracer_ != nullptr) {
        json.key("profile");
        tracer_->writeProfile(json);
    }

    json.key("stats");
    if (registry_ != nullptr)
        registry_->writeJson(json);
    else {
        json.beginObject();
        json.endObject();
    }

    json.endObject();
}

} // namespace telemetry
} // namespace gables
