#include "core/serialize.h"

namespace gables {

void
writeJson(JsonWriter &json, const SocSpec &soc)
{
    json.beginObject();
    json.kv("name", soc.name());
    json.kv("ppeak_ops_per_sec", soc.ppeak());
    json.kv("bpeak_bytes_per_sec", soc.bpeak());
    json.key("ips");
    json.beginArray();
    for (const IpSpec &ip : soc.ips()) {
        json.beginObject();
        json.kv("name", ip.name);
        json.kv("acceleration", ip.acceleration);
        json.kv("bandwidth_bytes_per_sec", ip.bandwidth);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

void
writeJson(JsonWriter &json, const Usecase &usecase)
{
    json.beginObject();
    json.kv("name", usecase.name());
    json.key("work");
    json.beginArray();
    for (const IpWork &w : usecase.work()) {
        json.beginObject();
        json.kv("fraction", w.fraction);
        json.kv("intensity_ops_per_byte", w.intensity);
        json.endObject();
    }
    json.endArray();
    json.kv("average_intensity", usecase.averageIntensity());
    json.endObject();
}

void
writeJson(std::ostream &out, const SocSpec &soc, const Usecase &usecase,
          const GablesResult &result)
{
    JsonWriter json(out);
    json.beginObject();
    json.key("soc");
    writeJson(json, soc);
    json.key("usecase");
    writeJson(json, usecase);
    json.key("result");
    json.beginObject();
    json.kv("attainable_ops_per_sec", result.attainable);
    json.kv("memory_time", result.memoryTime);
    json.kv("memory_perf_bound", result.memoryPerfBound);
    json.kv("total_data_bytes_per_op", result.totalDataBytes);
    json.kv("bottleneck", toString(result.bottleneck));
    json.kv("bottleneck_ip", result.bottleneckIp);
    json.kv("bottleneck_label", result.bottleneckLabel(soc));
    json.key("ips");
    json.beginArray();
    for (const IpTiming &t : result.ips) {
        json.beginObject();
        json.kv("compute_time", t.computeTime);
        json.kv("data_bytes", t.dataBytes);
        json.kv("transfer_time", t.transferTime);
        json.kv("time", t.time);
        json.kv("perf_bound", t.perfBound);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.endObject();
}

} // namespace gables
