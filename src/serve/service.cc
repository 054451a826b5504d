#include "serve/service.h"

#include <chrono>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "analysis/advisor.h"
#include "analysis/explorer.h"
#include "core/evaluator.h"
#include "core/gables.h"
#include "parallel/parallel_for.h"
#include "serve/protocol.h"
#include "soc/config.h"
#include "telemetry/report.h"
#include "telemetry/span.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/parse.h"

namespace gables {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A tagged protocol error; process() turns it into a response. */
struct RequestError {
    ServeError error;
};

[[noreturn]] void
badRequest(const std::string &message)
{
    throw RequestError{ServeError{ErrorKind::BadRequest, message}};
}

/** Per-request deadline: "deadline_ms" 0 is instantly expired. */
class Deadline
{
  public:
    Deadline(const JsonValue &req, Clock::time_point start)
        : start_(start)
    {
        std::optional<JsonValue> v = req.find("deadline_ms");
        if (!v)
            return;
        if (!v->isNumber() || v->asNumber() < 0)
            badRequest(
                "\"deadline_ms\" must be a non-negative number");
        ms_ = v->asNumber();
    }

    bool expired() const
    {
        return ms_ >= 0 &&
               secondsSince(start_) * 1000.0 >= ms_;
    }

  private:
    Clock::time_point start_;
    double ms_ = -1.0;
};

/** @return Object member @p key, shape-checked as a number. */
double
numberField(const JsonValue &obj, std::string_view key)
{
    std::optional<JsonValue> v = obj.find(key);
    if (!v || !v->isNumber())
        badRequest("missing or non-numeric \"" + std::string(key) +
                   "\"");
    return v->asNumber();
}

/** @return Optional string member @p key, or @p fallback. */
std::string
stringField(const JsonValue &obj, std::string_view key,
            std::string_view fallback)
{
    std::optional<JsonValue> v = obj.find(key);
    if (!v)
        return std::string(fallback);
    if (!v->isString())
        badRequest("\"" + std::string(key) + "\" must be a string");
    return std::string(v->asString());
}

/** @return Member @p key when it is a non-empty array, else nothing. */
std::optional<JsonValue>
nonEmptyArray(const JsonValue &obj, std::string_view key)
{
    std::optional<JsonValue> v = obj.find(key);
    if (v && v->isArray() && v->size() > 0)
        return v;
    return std::nullopt;
}

/** Parse an inline SoC in the shape core/serialize.h emits. */
SocSpec
socFromJson(const JsonValue &v)
{
    if (!v.isObject())
        badRequest("\"soc\" must be an object");
    double ppeak = numberField(v, "ppeak_ops_per_sec");
    double bpeak = numberField(v, "bpeak_bytes_per_sec");
    std::optional<JsonValue> ip_list = nonEmptyArray(v, "ips");
    if (!ip_list)
        badRequest("\"soc\" needs a non-empty \"ips\" array");
    std::vector<IpSpec> ips;
    for (const JsonValue &ip : ip_list->items()) {
        if (!ip.isObject())
            badRequest("each \"ips\" entry must be an object");
        IpSpec spec;
        spec.name = stringField(
            ip, "name", "IP" + std::to_string(ips.size()));
        spec.acceleration = numberField(ip, "acceleration");
        spec.bandwidth = numberField(ip, "bandwidth_bytes_per_sec");
        ips.push_back(std::move(spec));
    }
    return SocSpec(stringField(v, "name", "request"), ppeak, bpeak,
                   std::move(ips));
}

/** Parse an inline usecase in the shape core/serialize.h emits;
 * a null intensity means +infinity (no off-IP traffic). */
Usecase
usecaseFromJson(const JsonValue &v)
{
    if (!v.isObject())
        badRequest("\"usecase\" must be an object");
    std::optional<JsonValue> work_list = nonEmptyArray(v, "work");
    if (!work_list)
        badRequest("\"usecase\" needs a non-empty \"work\" array");
    std::vector<IpWork> work;
    for (const JsonValue &w : work_list->items()) {
        if (!w.isObject())
            badRequest("each \"work\" entry must be an object");
        IpWork item;
        item.fraction = numberField(w, "fraction");
        std::optional<JsonValue> intensity =
            w.find("intensity_ops_per_byte");
        if (intensity && intensity->isNull()) {
            item.intensity = std::numeric_limits<double>::infinity();
        } else {
            item.intensity =
                numberField(w, "intensity_ops_per_byte");
        }
        work.push_back(item);
    }
    return Usecase(stringField(v, "name", "request"),
                   std::move(work));
}

/**
 * Resolve the request's model inputs: inline "soc"+"usecase"
 * objects, or "config" (server-side file path) with an optional
 * "usecase" name.
 */
std::pair<SocSpec, Usecase>
resolvePair(const JsonValue &req)
{
    std::optional<JsonValue> usecase = req.find("usecase");
    if (std::optional<JsonValue> config = req.find("config")) {
        if (!config->isString())
            badRequest("\"config\" must be a file-path string");
        SocConfig cfg = loadSocConfig(std::string(config->asString()));
        if (cfg.usecases.empty())
            throw RequestError{ServeError{
                ErrorKind::Config,
                "config file declares no usecases"}};
        if (usecase) {
            if (!usecase->isString())
                badRequest("with \"config\", \"usecase\" must be a "
                           "usecase name");
            return {cfg.soc,
                    cfg.usecase(std::string(usecase->asString()))};
        }
        return {cfg.soc, cfg.usecases.front()};
    }
    std::optional<JsonValue> soc = req.find("soc");
    if (!soc || !usecase)
        badRequest("request needs inline \"soc\" and \"usecase\" "
                   "objects or a \"config\" path");
    return {socFromJson(*soc), usecaseFromJson(*usecase)};
}

/** Resolve a sweep/advise "ip" field (index or name) to an index. */
size_t
resolveIp(const JsonValue &req, const SocSpec &soc)
{
    std::optional<JsonValue> v = req.find("ip");
    if (!v)
        badRequest("missing \"ip\" (index or IP name)");
    if (v->isNumber()) {
        double d = v->asNumber();
        if (d < 0 || d >= static_cast<double>(soc.numIps()) ||
            d != static_cast<double>(static_cast<size_t>(d)))
            badRequest("\"ip\" index out of range");
        return static_cast<size_t>(d);
    }
    if (v->isString())
        return soc.ipIndex(std::string(v->asString()));
    badRequest("\"ip\" must be an index or an IP name");
}

std::string
handleEval(const EvaluatorCache::Entry &entry, bool hit,
           const JsonValue &req)
{
    bool detail = false;
    if (std::optional<JsonValue> v = req.find("detail")) {
        if (!v->isBool())
            badRequest("\"detail\" must be a boolean");
        detail = v->asBool();
    }
    const GablesResult &result = entry.result;
    std::string out;
    out.reserve(256);
    JsonWriter json(out, false);
    json.beginObject();
    json.kv("attainable_ops_per_sec", result.attainable);
    json.kv("bottleneck", toString(result.bottleneck));
    json.kv("bottleneck_label", result.bottleneckLabel(entry.soc));
    json.kv("cache_hit", hit);
    if (detail) {
        json.kv("memory_time", result.memoryTime);
        json.kv("memory_perf_bound", result.memoryPerfBound);
        json.kv("average_intensity", result.averageIntensity);
        json.kv("total_data_bytes_per_op", result.totalDataBytes);
        json.key("ips");
        json.beginArray();
        for (size_t i = 0; i < result.ips.size(); ++i) {
            const IpTiming &t = result.ips[i];
            json.beginObject();
            json.kv("name", entry.soc.ip(i).name);
            json.kv("compute_time", t.computeTime);
            json.kv("data_bytes", t.dataBytes);
            json.kv("transfer_time", t.transferTime);
            json.kv("time", t.time);
            json.kv("perf_bound", t.perfBound);
            json.endObject();
        }
        json.endArray();
    }
    json.endObject();
    return out;
}

/** Sweep one input over @p values, kGridWidth values per pass. */
void
sweepPacked(GablesPack<kGridWidth> &pack, Param p,
            const std::vector<double> &values, const Deadline &deadline,
            std::vector<double> &attainable)
{
    constexpr size_t W = kGridWidth;
    // Check the deadline about every 1024 points.
    size_t next_check = 1023;
    for (size_t p0 = 0; p0 < values.size(); p0 += W) {
        if (p0 + W > next_check) {
            if (deadline.expired())
                throw RequestError{ServeError{
                    ErrorKind::Deadline,
                    "deadline expired mid-sweep after " +
                        std::to_string(p0) + " points"}};
            next_check += 1024;
        }
        const size_t cnt = std::min(W, values.size() - p0);
        pack.setLanes(p, values.data() + p0, cnt);
        pack.run(cnt);
        for (size_t w = 0; w < cnt; ++w)
            attainable.push_back(pack.attainable(w));
    }
}

/** @return The input named @p name in @p names, else nothing. */
std::optional<Param::Kind>
lookupKind(const std::string &name,
           std::initializer_list<std::pair<const char *, Param::Kind>>
               names)
{
    for (const auto &[n, kind] : names) {
        if (name == n)
            return kind;
    }
    return std::nullopt;
}

/** The input of a sweep or explore entry: its kind, and for the
 * per-IP kinds the entry's "ip" field. */
Param
resolveParam(Param::Kind kind, const JsonValue &req, const SocSpec &soc)
{
    Param p{kind, 0};
    if (p.perIp())
        p.ip = resolveIp(req, soc);
    return p;
}

/** A sweep request's validated input and values. */
struct SweepArgs {
    Param param;
    std::vector<double> values;
};

SweepArgs
parseSweep(const JsonValue &req, const SocSpec &soc)
{
    std::optional<Param::Kind> kind =
        lookupKind(stringField(req, "axis", ""),
                   {{"intensity", Param::Kind::Intensity},
                    {"fraction", Param::Kind::Fraction},
                    {"bpeak", Param::Kind::Bpeak}});
    if (!kind)
        badRequest("\"axis\" must be \"intensity\", \"fraction\", "
                   "or \"bpeak\"");
    std::optional<JsonValue> values = nonEmptyArray(req, "values");
    if (!values)
        badRequest("missing non-empty \"values\" array");
    SweepArgs args;
    args.values.reserve(values->size());
    for (const JsonValue &v : values->items()) {
        if (!v.isNumber())
            badRequest("\"values\" entries must be numbers");
        args.values.push_back(v.asNumber());
    }
    args.param = resolveParam(*kind, req, soc);
    return args;
}

std::string
handleSweep(const EvaluatorCache::Entry &entry, bool hit,
            const SweepArgs &args, const Deadline &deadline,
            uint64_t *sweep_points)
{
    GablesPack<kGridWidth> pack(entry.soc, entry.usecase);
    std::vector<double> attainable;
    attainable.reserve(args.values.size());
    sweepPacked(pack, args.param, args.values, deadline, attainable);
    *sweep_points = attainable.size();

    std::string out;
    JsonWriter json(out, false);
    json.beginObject();
    json.numberArray("attainable_ops_per_sec", attainable);
    json.kv("points", attainable.size());
    json.kv("cache_hit", hit);
    json.endObject();
    return out;
}

std::string
handleExplore(const JsonValue &req, uint64_t *model_evals)
{
    auto [soc, usecase] = resolvePair(req);
    CostModel cost;
    if (std::optional<JsonValue> c = req.find("cost")) {
        if (!c->isObject())
            badRequest("\"cost\" must be an object");
        if (c->has("per_acceleration"))
            cost.costPerAcceleration =
                numberField(*c, "per_acceleration");
        if (c->has("per_bpeak"))
            cost.costPerBpeak = numberField(*c, "per_bpeak");
        if (c->has("per_ip_bandwidth"))
            cost.costPerIpBandwidth =
                numberField(*c, "per_ip_bandwidth");
    }
    DesignExplorer explorer(soc, {usecase}, cost);
    std::optional<JsonValue> sweeps = nonEmptyArray(req, "sweep");
    if (!sweeps)
        badRequest("missing non-empty \"sweep\" array");
    for (const JsonValue &s : sweeps->items()) {
        if (!s.isObject())
            badRequest("each \"sweep\" entry must be an object");
        std::string knob = stringField(s, "knob", "");
        std::optional<JsonValue> knob_values = nonEmptyArray(s, "values");
        if (!knob_values)
            badRequest("sweep entries need a non-empty \"values\" "
                       "array");
        std::vector<double> values;
        for (const JsonValue &v : knob_values->items()) {
            if (!v.isNumber())
                badRequest("sweep \"values\" must be numbers");
            values.push_back(v.asNumber());
        }
        std::optional<Param::Kind> kind =
            lookupKind(knob, {{"bpeak", Param::Kind::Bpeak},
                              {"acceleration", Param::Kind::Acceleration},
                              {"ip_bandwidth", Param::Kind::IpBandwidth}});
        if (!kind)
            badRequest("sweep \"knob\" must be \"bpeak\", "
                       "\"acceleration\", or \"ip_bandwidth\"" +
                       didYouMean(knob, {"bpeak", "acceleration",
                                         "ip_bandwidth"}));
        explorer.sweep(resolveParam(*kind, s, soc), std::move(values));
    }

    // Requests stay serial internally; batch-level parallelism is
    // the daemon's scaling axis.
    ExploreOptions opts;
    opts.jobs = 1;
    ExploreStats stats;
    std::vector<Candidate> frontier =
        explorer.exploreFrontier(opts, &stats);
    *model_evals = stats.evals;

    std::string out;
    JsonWriter json(out, false);
    json.beginObject();
    json.kv("grid_size", explorer.gridSize());
    json.kv("evals", static_cast<size_t>(stats.evals));
    json.kv("evals_pruned", static_cast<size_t>(stats.evalsPruned));
    json.kv("subgrids_skipped",
            static_cast<size_t>(stats.subgridsSkipped));
    json.key("frontier");
    json.beginArray();
    for (const Candidate &c : frontier) {
        json.beginObject();
        json.kv("bpeak_bytes_per_sec", c.soc.bpeak());
        std::vector<double> accels, bandwidths;
        for (const IpSpec &ip : c.soc.ips()) {
            accels.push_back(ip.acceleration);
            bandwidths.push_back(ip.bandwidth);
        }
        json.numberArray("accelerations", accels);
        json.numberArray("ip_bandwidths_bytes_per_sec", bandwidths);
        json.kv("min_perf_ops_per_sec", c.minPerf);
        json.kv("cost", c.cost);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return out;
}

std::string
handleAdvise(const JsonValue &req)
{
    auto [soc, usecase] = resolvePair(req);
    Advisor::Options options;
    if (req.has("max_scale"))
        options.maxScale = numberField(req, "max_scale");
    if (req.has("min_gain"))
        options.minGain = numberField(req, "min_gain");
    if (req.has("max_intensity_scale"))
        options.maxIntensityScale =
            numberField(req, "max_intensity_scale");
    std::vector<Advice> advice =
        Advisor::advise(soc, usecase, options);

    std::string out;
    JsonWriter json(out, false);
    json.beginObject();
    json.key("advice");
    json.beginArray();
    for (const Advice &a : advice) {
        json.beginObject();
        json.kv("kind", toString(a.kind));
        json.kv("ip", a.ip);
        json.kv("description", a.description);
        json.kv("before", a.before);
        json.kv("after", a.after);
        json.kv("attainable_ops_per_sec", a.newAttainable);
        json.kv("gain", a.gain);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return out;
}

} // namespace

/**
 * One request between the stages of process(): parse and resolve,
 * look the pair up in the evaluator cache, then evaluate and render.
 */
struct ServeService::Staged {
    Clock::time_point t0;
    Outcome outcome;
    /** Set once a stage failed; outcome.response is the error. */
    bool failed = false;
    std::string id = "null";
    JsonValue req;
    /** The request's op, once parsed and known. */
    const Op *op = nullptr;
    std::optional<Deadline> deadline;
    /** eval and sweep: the model inputs and their cache entry. */
    std::optional<std::pair<SocSpec, Usecase>> pair;
    std::shared_ptr<EvaluatorCache::Entry> entry;
    bool hit = false;
    SweepArgs sweep;
};

/**
 * One op: its wire name, whether it resolves a model pair (and so
 * goes through the evaluator cache), and its handler, which renders
 * the result object.
 */
struct ServeService::Op {
    std::string name;
    bool resolvesPair;
    std::string (*run)(ServeService &service, Staged &s);
};

template <typename Write>
void
ServeService::writeStats(Write &&write)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    registry_
        .gauge("serve.cache_hits", "evaluator-cache hits to date")
        .set(static_cast<double>(cache_.hits()));
    registry_
        .gauge("serve.cache_misses",
               "evaluator-cache misses (model evaluations) to date")
        .set(static_cast<double>(cache_.misses()));
    registry_
        .gauge("serve.cache_evictions",
               "evaluator-cache LRU evictions to date")
        .set(static_cast<double>(cache_.evictions()));
    registry_
        .gauge("serve.cache_size", "evaluator-cache resident entries")
        .set(static_cast<double>(cache_.size()));
    const double lookups =
        static_cast<double>(cache_.hits() + cache_.misses());
    registry_
        .gauge("serve.cache_hit_rate",
               "evaluator-cache hits / lookups (0 before the first "
               "lookup)")
        .set(lookups > 0.0
                 ? static_cast<double>(cache_.hits()) / lookups
                 : 0.0);
    telemetry::RunReport report("gables serve", "service");
    report.addConfig("jobs", static_cast<long>(options_.jobs));
    report.addConfig("cache_capacity",
                     static_cast<long>(options_.cacheCapacity));
    report.setRegistry(&registry_);
    write(report);
}

const std::vector<ServeService::Op> &
ServeService::ops()
{
    static const std::vector<Op> table = {
        {"ping", false,
         [](ServeService &, Staged &) -> std::string {
             return "{\"pong\": true}";
         }},
        {"eval", true,
         [](ServeService &, Staged &s) {
             std::string result = handleEval(*s.entry, s.hit, s.req);
             s.outcome.modelEvals = 1;
             return result;
         }},
        {"sweep", true,
         [](ServeService &, Staged &s) {
             std::string result =
                 handleSweep(*s.entry, s.hit, s.sweep, *s.deadline,
                             &s.outcome.sweepPoints);
             s.outcome.modelEvals = s.outcome.sweepPoints;
             return result;
         }},
        {"explore", false,
         [](ServeService &, Staged &s) {
             return handleExplore(s.req, &s.outcome.modelEvals);
         }},
        {"advise", false,
         [](ServeService &, Staged &s) { return handleAdvise(s.req); }},
        {"stats", false,
         [](ServeService &service, Staged &) {
             std::string out;
             JsonWriter json(out, false);
             service.writeStats([&](const telemetry::RunReport &report) {
                 report.write(json);
             });
             return out;
         }},
        {"shutdown", false,
         [](ServeService &, Staged &s) -> std::string {
             s.outcome.shutdown = true;
             return "{\"shutting_down\": true}";
         }},
    };
    return table;
}

ServeService::ServeService(const ServeOptions &options)
    : options_(options), cache_(options.cacheCapacity)
{
    GABLES_ASSERT(options.jobs >= 1, "serve jobs must be >= 1");
    if (options_.jobs > 1)
        pool_ = std::make_unique<parallel::ThreadPool>(options_.jobs);
    if (!options_.recordPath.empty()) {
        record_.open(options_.recordPath, std::ios::trunc);
        if (!record_)
            fatal("cannot open request record '" +
                  options_.recordPath + "' for writing");
    }
    stats_.requests =
        &registry_.counter("serve.requests", "requests handled");
    stats_.responsesOk =
        &registry_.counter("serve.responses_ok",
                           "successful responses");
    stats_.responsesError =
        &registry_.counter("serve.responses_error",
                           "error responses");
    stats_.deadlineExpired = &registry_.counter(
        "serve.deadline_expired",
        "requests refused or abandoned past their deadline");
    stats_.sweepPoints = &registry_.counter(
        "serve.sweep_points", "sweep grid points served");
    stats_.modelEvals = &registry_.counter(
        "serve.model_evals",
        "model evaluations performed by request handlers");
    stats_.bytesIn =
        &registry_.counter("serve.bytes_in",
                           "request bytes received");
    stats_.bytesOut =
        &registry_.counter("serve.bytes_out",
                           "response bytes produced");
    stats_.requestSeconds = &registry_.distribution(
        "serve.request_seconds", "wall-clock seconds per request");
    // process() maps every request onto an op's name, "unknown" for
    // unrecognized ops or "invalid" for unparseable requests, so
    // commit() never needs to register a counter.
    auto count_op = [&](const std::string &label) {
        stats_.ops[label] = &registry_.counter(
            "serve.op." + label, "requests with op " + label);
    };
    for (const Op &op : ops())
        count_op(op.name);
    count_op("unknown");
    count_op("invalid");
}

ServeService::~ServeService() = default;

template <typename Stage>
void
ServeService::guard(Staged &s, Stage &&stage)
{
    if (s.failed)
        return;
    try {
        stage();
        return;
    } catch (const RequestError &err) {
        s.outcome.deadlineExpired =
            err.error.kind == ErrorKind::Deadline;
        s.outcome.response = errorResponse(s.id, err.error);
    } catch (const FatalError &err) {
        // Model/config-layer diagnostics: the request was understood
        // but its inputs are invalid.
        s.outcome.response = errorResponse(
            s.id, ServeError{ErrorKind::Config, err.what()});
    } catch (const std::exception &err) {
        s.outcome.response = errorResponse(
            s.id, ServeError{ErrorKind::Internal, err.what()});
    }
    s.failed = true;
}

void
ServeService::parseStage(Staged &s, const std::string &line)
{
    s.t0 = Clock::now();
    guard(s, [&] {
        GABLES_SPAN("serve.parse");
        try {
            s.req = parseJson(line);
        } catch (const FatalError &err) {
            badRequest(std::string("malformed request JSON: ") +
                       err.what());
        }
        if (!s.req.isObject())
            badRequest("request must be a JSON object");
        if (std::optional<JsonValue> id = s.req.find("id"))
            s.id = renderId(*id);
        std::string op = stringField(s.req, "op", "");
        if (op.empty())
            badRequest("missing \"op\" string");
        for (const Op &cand : ops()) {
            if (cand.name == op)
                s.op = &cand;
        }
        if (!s.op) {
            s.outcome.op = "unknown";
            std::vector<std::string> names;
            for (const Op &cand : ops())
                names.push_back(cand.name);
            badRequest("unknown op '" + op + "'" +
                       didYouMean(op, names));
        }
        s.outcome.op = op;

        s.deadline.emplace(s.req, s.t0);
        if (s.deadline->expired())
            throw RequestError{ServeError{
                ErrorKind::Deadline,
                "deadline expired before processing began"}};
    });
    if (s.failed || !s.op->resolvesPair)
        return;
    guard(s, [&] {
        GABLES_SPAN("serve.resolve");
        s.pair = resolvePair(s.req);
        if (s.outcome.op == "sweep")
            s.sweep = parseSweep(s.req, s.pair->first);
    });
}

void
ServeService::acquireStage(Staged &s)
{
    if (!s.pair)
        return;
    guard(s, [&] {
        GABLES_SPAN("serve.cache");
        s.entry = cache_.acquire(s.pair->first, s.pair->second, &s.hit);
    });
}

void
ServeService::runStage(Staged &s)
{
    guard(s, [&] {
        GABLES_SPAN("serve.run");
        std::string result = s.op->run(*this, s);
        if (s.deadline->expired())
            throw RequestError{ServeError{
                ErrorKind::Deadline,
                "deadline expired during processing"}};
        s.outcome.response = okResponse(s.id, result);
        s.outcome.ok = true;
    });
    s.outcome.seconds = secondsSince(s.t0);
}

ServeService::Outcome
ServeService::process(const std::string &line)
{
    Staged s;
    parseStage(s, line);
    acquireStage(s);
    runStage(s);
    return std::move(s.outcome);
}

void
ServeService::commit(const std::string &line, const Outcome &outcome)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    stats_.requests->add();
    (outcome.ok ? stats_.responsesOk : stats_.responsesError)->add();
    auto op_it = stats_.ops.find(outcome.op);
    if (op_it != stats_.ops.end())
        op_it->second->add();
    else
        registry_
            .counter("serve.op." + outcome.op,
                     "requests with op " + outcome.op)
            .add();
    if (outcome.deadlineExpired)
        stats_.deadlineExpired->add();
    if (outcome.sweepPoints > 0)
        stats_.sweepPoints->add(
            static_cast<double>(outcome.sweepPoints));
    if (outcome.modelEvals > 0)
        stats_.modelEvals->add(
            static_cast<double>(outcome.modelEvals));
    stats_.requestSeconds->sample(outcome.seconds);
    stats_.bytesIn->add(static_cast<double>(line.size()));
    stats_.bytesOut->add(static_cast<double>(outcome.response.size()));
    if (record_.is_open()) {
        JsonWriter json(record_, false);
        json.beginObject();
        json.kv("request", line);
        json.kv("response", outcome.response);
        json.endObject();
        record_ << '\n';
        record_.flush();
    }
    if (outcome.shutdown)
        shutdown_.store(true);
}

std::string
ServeService::handleLine(const std::string &line)
{
    Outcome outcome = process(line);
    commit(line, outcome);
    return std::move(outcome.response);
}

std::vector<std::string>
ServeService::handleBatch(const std::vector<std::string> &lines)
{
    std::vector<std::string> responses;
    responses.reserve(lines.size());
    if (pool_ && lines.size() > 1) {
        // Parse and render on the pool, but look the cache up in
        // request order, so cache_hit reads as it would serially.
        std::vector<Staged> staged(lines.size());
        pool_->forEach(lines.size(), [&](size_t i, int) {
            parseStage(staged[i], lines[i]);
        });
        for (Staged &s : staged)
            acquireStage(s);
        pool_->forEach(lines.size(), [&](size_t i, int) {
            runStage(staged[i]);
        });
        // Telemetry and the record tee commit in request order, so a
        // batch is observationally identical to serial handling.
        for (size_t i = 0; i < lines.size(); ++i) {
            commit(lines[i], staged[i].outcome);
            responses.push_back(std::move(staged[i].outcome.response));
        }
        return responses;
    }
    for (const std::string &line : lines)
        responses.push_back(handleLine(line));
    return responses;
}

std::string
ServeService::statsReportJson()
{
    std::string out;
    writeStats([&](const telemetry::RunReport &report) {
        JsonWriter json(out, true);
        report.write(json);
    });
    out += '\n';
    return out;
}

} // namespace serve
} // namespace gables
