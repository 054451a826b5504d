#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "util/json_writer.h"

namespace e2e {

uint64_t
SeededRng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
SeededRng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
SeededRng::logUniform(double lo, double hi)
{
    return std::exp(uniform(std::log(lo), std::log(hi)));
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        throw std::invalid_argument("percentile of no samples");
    if (!(p >= 0.0 && p <= 1.0))
        throw std::invalid_argument("percentile outside [0, 1]");
    std::sort(values.begin(), values.end());
    double rank = p * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

void
Tally::keep(const std::string &what)
{
    if (messages_.size() < kKeptMessages)
        messages_.push_back(what);
}

void
Tally::operation(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        keep("operation failed: " + what);
    }
}

void
Tally::check(bool ok, const std::string &what)
{
    if (!ok) {
        ++checksFailed_;
        keep("check failed: " + what);
    }
}

double
Tally::errorRate() const
{
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
}

void
Digest::add(const char *data, size_t n)
{
    uint64_t h = hash;
    for (size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ull;
    }
    hash = h;
    bytes += n;
}

DigestBuf::int_type
DigestBuf::overflow(int_type ch)
{
    if (traits_type::eq_int_type(ch, traits_type::eof()))
        return traits_type::not_eof(ch);
    char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
    return ch;
}

std::streamsize
DigestBuf::xsputn(const char *s, std::streamsize n)
{
    digest_.add(s, static_cast<size_t>(n));
    const char *p = s;
    const char *end = s + n;
    // keep_ is consumed front to back, so a line costs one compare.
    while (p < end) {
        const char *nl = static_cast<const char *>(
            std::memchr(p, '\n', static_cast<size_t>(end - p)));
        const char *stop = nl ? nl : end;
        bool wanted = !keep_.empty() && *keep_.begin() == line_;
        if (wanted)
            current_.append(p, stop);
        if (nl == nullptr)
            break;
        if (wanted) {
            kept_.push_back(std::move(current_));
            current_.clear();
            keep_.erase(keep_.begin());
        }
        ++line_;
        p = nl + 1;
    }
    return n;
}

namespace {

/** @return The key of a `"key": ...` line, or "" for other lines. */
std::string
memberKey(const std::string &line)
{
    size_t q0 = line.find_first_not_of(' ');
    if (q0 == std::string::npos || line[q0] != '"')
        return "";
    size_t q1 = line.find("\": ", q0 + 1);
    return q1 == std::string::npos ? "" : line.substr(q0 + 1, q1 - q0 - 1);
}

} // namespace

Digest
digestJsonFile(const std::string &path,
               const std::set<std::string> &skipKeys)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    Digest d;
    std::string line;
    // While skipping a multi-line member, the indentation of its key
    // line; the member ends at the first line back at that indent.
    size_t skipIndent = std::string::npos;
    while (std::getline(in, line)) {
        size_t indent = line.find_first_not_of(' ');
        if (skipIndent != std::string::npos) {
            if (indent == skipIndent)
                skipIndent = std::string::npos;
            continue;
        }
        if (skipKeys.count(memberKey(line)) != 0) {
            char last = line.empty() ? ' ' : line.back();
            if (last == '{' || last == '[')
                skipIndent = indent;
            continue;
        }
        // Whether a member is followed by a comma depends on whether a
        // skipped member comes after it, so commas are not digested.
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        line.push_back('\n');
        d.add(line.data(), line.size());
    }
    return d;
}

uint64_t
referenceWork()
{
    constexpr size_t kCells = 60000;
    std::vector<std::string> cells;
    cells.reserve(kCells);
    for (size_t i = 0; i < kCells; ++i) {
        std::ostringstream out;
        out.setf(std::ios::fixed);
        out.precision(4);
        out << static_cast<double>(i) * 3.7 / kCells;
        cells.push_back(out.str());
    }
    Digest d;
    for (const std::string &c : cells)
        d.add(c.data(), c.size());

    std::string buffer(16u << 20, 'x');
    for (size_t i = 0; i < buffer.size(); i += 64)
        buffer[i] = static_cast<char>(i >> 6);
    d.add(buffer.data(), buffer.size());

    using Event = std::pair<double, uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> q;
    SeededRng rng(1);
    for (uint32_t id = 0; id < 1024; ++id)
        q.push({rng.uniform(), id});
    uint64_t acc = 0;
    for (size_t k = 0; k < 200000; ++k) {
        Event e = q.top();
        q.pop();
        acc += e.second;
        q.push({e.first + rng.uniform(), e.second});
    }
    return d.hash ^ acc;
}

namespace {

/** Shortest round-trip text of @p v, so argv parses back exactly. */
std::string
exactText(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

} // namespace

SweepInputs
makeSweepInputs(uint64_t seed)
{
    SeededRng rng(seed ^ 0x5357454550ull); // "SWEEP"
    SweepInputs in;
    in.i0 = rng.logUniform(0.25, 16.0);
    in.i1 = rng.logUniform(0.25, 16.0);
    std::set<uint64_t> rows{0, kSweepPoints - 1};
    while (rows.size() < 16)
        rows.insert(rng.below(kSweepPoints));
    in.sampleRows.assign(rows.begin(), rows.end());
    return in;
}

std::vector<std::string>
sweepArgv(const SweepInputs &in, const std::string &metricsPath)
{
    return {"gables",   "sweep",
            "--soc",    "sd835",
            "--i0",     exactText(in.i0),
            "--i1",     exactText(in.i1),
            "--points", std::to_string(kSweepPoints),
            "--jobs",   "1",
            "--metrics", metricsPath};
}

std::vector<std::vector<std::string>>
computeCommands(uint64_t seed)
{
    SeededRng rng(seed ^ 0x434f4d50ull); // "COMP"
    std::string robustSeed = std::to_string(rng.below(1000000000));
    std::vector<std::vector<std::string>> cmds = {
        {"gables", "robust", "--samples", "2000000", "--seed", robustSeed},
        {"gables", "sim", "--soc", "sd835", "--bytes", "2e9",
         "--working-set", "2e9", "--epochs", "64"},
    };
    for (const char *engine : {"CPU", "GPU", "DSP"})
        cmds.push_back({"gables", "ert", "--engine", engine, "--jobs", "1"});
    return cmds;
}

const char *
label(ReqKind kind)
{
    switch (kind) {
      case ReqKind::Eval: return "eval";
      case ReqKind::EvalConfig: return "eval_config";
      case ReqKind::Sweep: return "sweep";
      case ReqKind::Explore: return "explore";
      case ReqKind::Advise: return "advise";
      case ReqKind::Stats: return "stats";
      case ReqKind::Malformed: return "malformed";
    }
    return "?";
}

namespace {

const char *const kIpNames[] = {"CPU", "GPU", "DSP"};

ModelPair
makePair(SeededRng &rng, const std::string &name)
{
    size_t n = 2 + rng.below(2);
    std::vector<gables::IpSpec> ips;
    std::vector<gables::IpWork> work;
    std::vector<double> shares;
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
        gables::IpSpec ip;
        ip.name = kIpNames[i];
        ip.acceleration = i == 0 ? 1.0 : rng.logUniform(1.0, 40.0);
        ip.bandwidth = rng.logUniform(4e9, 40e9);
        ips.push_back(ip);
        shares.push_back(static_cast<double>(1 + rng.below(16)));
        total += shares.back();
    }
    for (size_t i = 0; i < n; ++i)
        work.push_back({shares[i] / total, rng.logUniform(0.05, 64.0)});
    gables::SocSpec soc(name, rng.logUniform(5e9, 50e9),
                        rng.logUniform(8e9, 40e9), std::move(ips));
    return {std::move(soc), gables::Usecase(name, std::move(work))};
}

/** Write the "soc" and "usecase" members of @p pair, with every work
 * fraction multiplied by @p fractionScale. */
void
writeModel(gables::JsonWriter &json, const ModelPair &pair,
           double fractionScale = 1.0)
{
    const gables::SocSpec &soc = pair.soc;
    json.key("soc");
    json.beginObject();
    json.kv("name", soc.name());
    json.kv("ppeak_ops_per_sec", soc.ppeak());
    json.kv("bpeak_bytes_per_sec", soc.bpeak());
    json.key("ips");
    json.beginArray();
    for (const gables::IpSpec &ip : soc.ips()) {
        json.beginObject();
        json.kv("name", ip.name);
        json.kv("acceleration", ip.acceleration);
        json.kv("bandwidth_bytes_per_sec", ip.bandwidth);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.key("usecase");
    json.beginObject();
    json.kv("name", pair.usecase.name());
    json.key("work");
    json.beginArray();
    for (const gables::IpWork &w : pair.usecase.work()) {
        json.beginObject();
        json.kv("fraction", fractionScale * w.fraction);
        json.kv("intensity_ops_per_byte", w.intensity);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

/** Begin a request object with its id and op. */
void
beginRequest(gables::JsonWriter &json, long id, const char *op)
{
    json.beginObject();
    json.kv("id", id);
    json.kv("op", op);
}

/** @return @p n log-spaced multiples of @p base over [lo, hi], each
 * nudged by a seeded factor within 1%. */
std::vector<double>
scaledValues(SeededRng &rng, double base, double lo, double hi, size_t n)
{
    std::vector<double> v;
    for (size_t k = 0; k < n; ++k) {
        double t = n > 1 ? static_cast<double>(k) / (n - 1) : 0.0;
        v.push_back(base * lo * std::pow(hi / lo, t) *
                    rng.uniform(0.995, 1.005));
    }
    return v;
}

ServeRequest
malformedRequest(SeededRng &rng, const ModelPair &pair, long id)
{
    ServeRequest r;
    r.kind = ReqKind::Malformed;
    r.expectError = "bad-request";
    std::ostringstream out;
    gables::JsonWriter json(out, false);
    switch (rng.below(5)) {
      case 0: { // truncated JSON
        std::string whole = evalLine(pair, id);
        r.line = whole.substr(0, whole.size() / 2);
        return r;
      }
      case 1: // unknown op
        beginRequest(json, id, "evaluate");
        json.endObject();
        break;
      case 2: // model inputs missing
        beginRequest(json, id, "eval");
        json.endObject();
        break;
      case 3: // fractions that sum to two: a model error
        beginRequest(json, id, "eval");
        writeModel(json, pair, 2.0);
        json.endObject();
        r.expectError = "config";
        break;
      default: // not an object
        r.line = "[" + std::to_string(id) + "]";
        return r;
    }
    r.line = out.str();
    return r;
}

} // namespace

std::string
evalLine(const ModelPair &pair, long id)
{
    std::ostringstream out;
    gables::JsonWriter json(out, false);
    beginRequest(json, id, "eval");
    writeModel(json, pair);
    json.endObject();
    return out.str();
}

ServeMix
makeServeMix(
    uint64_t seed, const MixShape &shape,
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        &configs)
{
    SeededRng rng(seed ^ 0x5345525645ull); // "SERVE"
    ServeMix mix;
    mix.hotPairs = shape.hotPairs;
    for (size_t i = 0; i < shape.hotPairs + shape.coldPairs; ++i)
        mix.pairs.push_back(
            makePair(rng, (i < shape.hotPairs ? "hot" : "cold") +
                              std::to_string(i)));

    std::vector<ReqKind> kinds;
    auto add = [&kinds](ReqKind k, size_t n) {
        kinds.insert(kinds.end(), n, k);
    };
    add(ReqKind::Eval, shape.evalsInline);
    add(ReqKind::EvalConfig, shape.evalsConfig);
    add(ReqKind::Sweep, shape.sweeps);
    add(ReqKind::Explore, shape.explores);
    add(ReqKind::Advise, shape.advises);
    add(ReqKind::Stats, shape.stats);
    add(ReqKind::Malformed, shape.malformed);
    for (size_t i = kinds.size(); i > 1; --i)
        std::swap(kinds[i - 1], kinds[rng.below(i)]);

    // Hot and cold inline evals come in exact proportion, shuffled.
    size_t hotEvals = static_cast<size_t>(
        std::llround(shape.hotShare * shape.evalsInline));
    std::vector<bool> hot(shape.evalsInline, false);
    std::fill(hot.begin(), hot.begin() + hotEvals, true);
    for (size_t i = hot.size(); i > 1; --i) {
        size_t j = rng.below(i);
        bool t = hot[i - 1];
        hot[i - 1] = hot[j];
        hot[j] = t;
    }
    size_t evalIndex = 0;

    long id = 0;
    for (ReqKind kind : kinds) {
        ++id;
        ServeRequest r;
        r.kind = kind;
        int hotPair = static_cast<int>(rng.below(shape.hotPairs));
        std::ostringstream out;
        gables::JsonWriter json(out, false);
        switch (kind) {
          case ReqKind::Eval: {
            r.pair = hot[evalIndex++]
                         ? hotPair
                         : static_cast<int>(shape.hotPairs +
                                            rng.below(shape.coldPairs));
            r.line = evalLine(mix.pairs[r.pair], id);
            break;
          }
          case ReqKind::EvalConfig: {
            const auto &cfg = configs[rng.below(configs.size())];
            r.configPath = cfg.first;
            r.configUsecase = cfg.second[rng.below(cfg.second.size())];
            beginRequest(json, id, "eval");
            json.kv("config", r.configPath);
            json.kv("usecase", r.configUsecase);
            json.endObject();
            break;
          }
          case ReqKind::Sweep: {
            r.pair = hotPair;
            const ModelPair &p = mix.pairs[r.pair];
            bool bpeak = rng.below(2) == 0;
            r.axis = bpeak ? "bpeak" : "intensity";
            r.ip = bpeak ? 0 : rng.below(p.soc.numIps());
            for (size_t k = 0; k < shape.sweepValues; ++k)
                r.values.push_back(bpeak ? rng.logUniform(1e9, 100e9)
                                         : rng.logUniform(0.01, 100.0));
            r.gridPoints = r.values.size();
            beginRequest(json, id, "sweep");
            writeModel(json, p);
            json.kv("axis", r.axis);
            if (!bpeak)
                json.kv("ip", r.ip);
            json.key("values");
            json.beginArray();
            for (double v : r.values)
                json.value(v);
            json.endArray();
            json.endObject();
            break;
          }
          case ReqKind::Explore: {
            r.pair = hotPair;
            const ModelPair &p = mix.pairs[r.pair];
            const size_t n = shape.exploreKnobValues;
            r.knobs = {
                {"bpeak", 0, scaledValues(rng, p.soc.bpeak(), 0.25, 4, n)},
                {"acceleration", 1,
                 scaledValues(rng, p.soc.ip(1).acceleration, 0.25, 4, n)},
                {"ip_bandwidth", 0,
                 scaledValues(rng, p.soc.ip(0).bandwidth, 0.25, 4, n)},
                {"ip_bandwidth", 1,
                 scaledValues(rng, p.soc.ip(1).bandwidth, 0.25, 4, n)},
            };
            r.gridPoints = n * n * n * n;
            beginRequest(json, id, "explore");
            writeModel(json, p);
            json.key("sweep");
            json.beginArray();
            for (const ExploreKnob &k : r.knobs) {
                json.beginObject();
                json.kv("knob", k.knob);
                if (k.knob != "bpeak")
                    json.kv("ip", k.ip);
                json.key("values");
                json.beginArray();
                for (double v : k.values)
                    json.value(v);
                json.endArray();
                json.endObject();
            }
            json.endArray();
            // Every knob costs something, so equal-performance designs
            // differ in cost and the frontier stays small.
            json.key("cost");
            json.beginObject();
            json.kv("per_acceleration", kExploreCost.costPerAcceleration);
            json.kv("per_bpeak", kExploreCost.costPerBpeak);
            json.kv("per_ip_bandwidth", kExploreCost.costPerIpBandwidth);
            json.endObject();
            json.endObject();
            break;
          }
          case ReqKind::Advise:
            // Advisor's optimal-split move can round a third IP's
            // fraction just outside [0, 1] and fail the request, so
            // advise asks about two-IP pairs only.
            r.pair = hotPair;
            for (size_t k = 0; k < shape.hotPairs &&
                               mix.pairs[r.pair].soc.numIps() != 2;
                 ++k)
                r.pair = (r.pair + 1) % static_cast<int>(shape.hotPairs);
            beginRequest(json, id, "advise");
            writeModel(json, mix.pairs[r.pair]);
            json.endObject();
            break;
          case ReqKind::Stats:
            beginRequest(json, id, "stats");
            json.endObject();
            break;
          case ReqKind::Malformed:
            r = malformedRequest(rng, mix.pairs[hotPair], id);
            break;
        }
        if (r.line.empty())
            r.line = out.str();
        mix.requests.push_back(std::move(r));
    }
    return mix;
}

namespace {

/** @return The offset of the first value of member @p key (after
 * `"key":` and any spaces), or npos. */
size_t
valueAt(const std::string &text, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    size_t at = text.find(needle);
    if (at == std::string::npos)
        return at;
    at += needle.size();
    while (at < text.size() && text[at] == ' ')
        ++at;
    return at;
}

bool
valueIs(const std::string &text, const std::string &key,
        const std::string &literal)
{
    size_t at = valueAt(text, key);
    return at != std::string::npos &&
           text.compare(at, literal.size(), literal) == 0;
}

} // namespace

bool
responseMatches(const std::string &response,
                const std::string &expectError)
{
    if (expectError.empty())
        return valueIs(response, "ok", "true");
    return valueIs(response, "ok", "false") &&
           valueIs(response, "kind", "\"" + expectError + "\"");
}

bool
numberAfter(const std::string &text, const std::string &key,
            double *out)
{
    size_t at = valueAt(text, key);
    if (at == std::string::npos)
        return false;
    const char *first = text.data() + at;
    const char *last = text.data() + text.size();
    auto res = std::from_chars(first, last, *out);
    return res.ec == std::errc() && res.ptr != first;
}

} // namespace e2e
