/**
 * @file
 * Load generator for the `gables serve` daemon: a socket client that
 * derives its request mix from the committed replay corpus
 * (tests/corpus/*.json), so the daemon is exercised with the same
 * scenarios the CLI regression backbone replays.
 *
 * Two phases:
 *
 *  - corpus_mix_serial: every corpus-derived request round-trips
 *    serially --reps times; per-request latency yields p50/p99.
 *    Any error response fails the run (exit 1), which makes the CI
 *    smoke job a protocol check as well as a perf check.
 *  - cached_eval_throughput: one fixed eval request repeated --evals
 *    times, pipelined (a writer thread streams requests while the
 *    main thread drains responses), measuring steady-state cached
 *    requests/s — the headline number BENCH_serve.json gates.
 *
 * With --spawn GABLES_BIN the loadgen forks the daemon itself on a
 * private unix socket, shuts it down afterwards, and propagates its
 * exit status; otherwise it attaches to --socket/--port. --json
 * writes the BENCH_serve.json schema atomically (temp + rename).
 */

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <cmath>
#include <fstream>

#include "core/gables.h"
#include "core/serialize.h"
#include "replay/bundle.h"
#include "replay/replayer.h"
#include "soc/catalog.h"
#include "util/atomic_file.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/parse.h"

namespace {

using namespace gables;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One derived request: a full JSON line plus provenance. */
struct MixRequest {
    std::string bundle;
    std::string op;
    std::string line;
};

/** Connected socket with buffered line reads. */
class LineClient
{
  public:
    explicit LineClient(int fd) : fd_(fd) {}
    ~LineClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    LineClient(const LineClient &) = delete;
    LineClient &operator=(const LineClient &) = delete;

    int fd() const { return fd_; }

    void sendAll(const char *data, size_t len)
    {
        while (len > 0) {
            ssize_t sent = ::send(fd_, data, len, MSG_NOSIGNAL);
            if (sent < 0) {
                if (errno == EINTR)
                    continue;
                fatal(std::string("send failed: ") +
                      std::strerror(errno));
            }
            data += sent;
            len -= static_cast<size_t>(sent);
        }
    }

    void sendLine(const std::string &line)
    {
        std::string framed = line;
        framed += '\n';
        sendAll(framed.data(), framed.size());
    }

    /** @return One response line (without the newline). */
    std::string recvLine()
    {
        for (;;) {
            size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            char chunk[65536];
            ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (got < 0) {
                if (errno == EINTR)
                    continue;
                fatal(std::string("recv failed: ") +
                      std::strerror(errno));
            }
            if (got == 0)
                fatal("server closed the connection mid-response");
            buf_.append(chunk, static_cast<size_t>(got));
        }
    }

  private:
    int fd_;
    std::string buf_;
};

int
connectUnix(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal(std::string("cannot create socket: ") +
              std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        int saved = errno;
        ::close(fd);
        errno = saved;
        return -1;
    }
    return fd;
}

int
connectTcp(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal(std::string("cannot create socket: ") +
              std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        int saved = errno;
        ::close(fd);
        errno = saved;
        return -1;
    }
    return fd;
}

std::string
argvFlag(const std::vector<std::string> &argv,
         const std::string &flag, const std::string &def)
{
    for (size_t i = 0; i + 1 < argv.size(); ++i)
        if (argv[i] == flag)
            return argv[i + 1];
    return def;
}

bool
hasFlag(const std::vector<std::string> &argv, const std::string &flag)
{
    for (size_t i = 0; i + 1 < argv.size(); ++i)
        if (argv[i] == flag)
            return true;
    return false;
}

/** Serialize one request body shared by every op: inline soc +
 * usecase in the core/serialize.h wire shape. */
void
writeModelInputs(JsonWriter &json, const SocSpec &soc,
                 const Usecase &usecase)
{
    std::ostringstream soc_json;
    writeJson(soc_json, soc);
    json.key("soc");
    replay::writeJsonValue(json, parseJson(soc_json.str()));
    std::ostringstream usecase_json;
    writeJson(usecase_json, usecase);
    json.key("usecase");
    replay::writeJsonValue(json, parseJson(usecase_json.str()));
}

/**
 * Derive one serve request from a corpus bundle's recorded command.
 * CLI subcommands the daemon serves map to their op; everything else
 * (sim, ert, robust, ...) contributes an eval of the same SoC, so
 * every bundle adds load. Model inputs follow the CLI defaults the
 * bundle's argv overrides (--soc, --f, --i0, --i1).
 */
MixRequest
deriveRequest(const std::string &bundle_name,
              const std::string &subcommand,
              const std::vector<std::string> &argv, int id)
{
    static const char *kServed[] = {"eval", "sweep", "explore",
                                    "advise"};
    std::string op = "eval";
    for (const char *served : kServed)
        if (subcommand == served)
            op = served;

    bool paper_flags = hasFlag(argv, "--f") || hasFlag(argv, "--i0") ||
                       hasFlag(argv, "--i1");
    std::string soc_name =
        argvFlag(argv, "--soc", paper_flags ? "paper" : "sd835");
    SocSpec soc = SocCatalog::byName(soc_name).spec();

    // The cmdEval shape: work fraction f at IP[1], the rest at the
    // host IP[0], zero on any further IPs.
    double f = parseDoubleStrict(argvFlag(argv, "--f", "0.75"));
    double i0 = parseDoubleStrict(argvFlag(argv, "--i0", "8"));
    double i1 = parseDoubleStrict(argvFlag(argv, "--i1", "8"));
    std::vector<IpWork> work(soc.numIps(), IpWork{0.0, 1.0});
    work[0] = IpWork{soc.numIps() > 1 ? 1.0 - f : 1.0, i0};
    if (soc.numIps() > 1)
        work[1] = IpWork{f, i1};
    Usecase usecase("loadgen", work);

    std::ostringstream line;
    JsonWriter json(line, false);
    json.beginObject();
    json.kv("id", id);
    json.kv("op", op);
    writeModelInputs(json, soc, usecase);
    if (op == "sweep") {
        json.kv("axis", "intensity");
        json.kv("ip", 0);
        json.key("values");
        json.beginArray();
        for (int p = 0; p < 33; ++p)
            json.value(0.125 * std::pow(2.0, p * 0.375));
        json.endArray();
    } else if (op == "explore") {
        json.key("sweep");
        json.beginArray();
        json.beginObject();
        json.kv("knob", "bpeak");
        json.key("values");
        json.beginArray();
        for (double scale : {0.5, 1.0, 1.5, 2.0})
            json.value(soc.bpeak() * scale);
        json.endArray();
        json.endObject();
        json.endArray();
        json.key("cost");
        json.beginObject();
        json.kv("per_bpeak", 1e-9);
        json.endObject();
    }
    json.endObject();
    return MixRequest{bundle_name, op, line.str()};
}

/** Load the corpus and derive the request mix (sorted by filename
 * for determinism). */
std::vector<MixRequest>
corpusMix(const std::string &dir)
{
    std::vector<std::string> files = replay::listBundles(dir);
    std::sort(files.begin(), files.end());
    std::vector<MixRequest> mix;
    for (const std::string &path : files) {
        std::ifstream in(path);
        if (!in)
            fatal("cannot open corpus bundle '" + path + "'");
        std::ostringstream buf;
        buf << in.rdbuf();
        JsonValue doc = parseJson(buf.str());
        if (!doc.has("command"))
            continue;
        const JsonValue &command = doc.at("command");
        if (!command.has("subcommand") || !command.has("argv"))
            continue;
        std::vector<std::string> argv;
        for (const JsonValue &arg : command.at("argv").items())
            argv.push_back(arg.asString());
        std::string stem = path;
        size_t slash = stem.find_last_of('/');
        if (slash != std::string::npos)
            stem = stem.substr(slash + 1);
        mix.push_back(deriveRequest(
            stem, command.at("subcommand").asString(), argv,
            static_cast<int>(mix.size()) + 1));
    }
    if (mix.empty())
        fatal("no usable corpus bundles in '" + dir + "'");
    return mix;
}

/** The fixed request of the cached-eval throughput phase. */
std::string
cachedEvalRequest()
{
    SocSpec soc = SocCatalog::paperTwoIp();
    std::vector<IpWork> work{IpWork{0.25, 8.0}, IpWork{0.75, 8.0}};
    Usecase usecase("loadgen", work);
    std::ostringstream line;
    JsonWriter json(line, false);
    json.beginObject();
    json.kv("id", 0);
    json.kv("op", "eval");
    writeModelInputs(json, soc, usecase);
    json.endObject();
    return line.str();
}

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    double rank = p * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

bool
responseOk(const std::string &line)
{
    JsonValue doc = parseJson(line);
    return doc.has("ok") && doc.at("ok").isBool() &&
           doc.at("ok").asBool();
}

struct SpawnedDaemon {
    pid_t pid = -1;
    std::string socketPath;
};

SpawnedDaemon
spawnDaemon(const std::string &gables_bin, int jobs)
{
    SpawnedDaemon daemon;
    daemon.socketPath = "/tmp/gables-loadgen-" +
                        std::to_string(::getpid()) + ".sock";
    std::remove(daemon.socketPath.c_str());
    std::string jobs_str = std::to_string(jobs);
    daemon.pid = ::fork();
    if (daemon.pid < 0)
        fatal(std::string("fork failed: ") + std::strerror(errno));
    if (daemon.pid == 0) {
        ::execl(gables_bin.c_str(), gables_bin.c_str(), "serve",
                "--socket", daemon.socketPath.c_str(), "--jobs",
                jobs_str.c_str(), static_cast<char *>(nullptr));
        std::perror("execl gables");
        ::_exit(127);
    }
    return daemon;
}

int
usageError()
{
    std::cerr
        << "usage: bench_serve_loadgen [--spawn GABLES_BIN]\n"
           "           [--socket PATH | --port N] [--corpus DIR]\n"
           "           [--reps N] [--evals N] [--jobs N]\n"
           "           [--json PATH] [--shutdown]\n"
           "Drives a gables serve daemon with the corpus-derived\n"
           "request mix (latency p50/p99) and a pipelined cached-\n"
           "eval stream (requests/s). --spawn forks the daemon on a\n"
           "private unix socket and shuts it down afterwards.\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spawn_bin;
    std::string socket_path;
    int port = -1;
    std::string corpus_dir = "tests/corpus";
    std::string json_path;
    long reps = 5;
    long evals = 200000;
    int jobs = 4;
    bool shutdown_daemon = false;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&](const char *what) -> std::string {
                if (i + 1 >= argc)
                    fatal(std::string(what) + " needs a value");
                return argv[++i];
            };
            if (arg == "--spawn")
                spawn_bin = next("--spawn");
            else if (arg == "--socket")
                socket_path = next("--socket");
            else if (arg == "--port")
                port = static_cast<int>(
                    parseIntStrict(next("--port")));
            else if (arg == "--corpus")
                corpus_dir = next("--corpus");
            else if (arg == "--json")
                json_path = next("--json");
            else if (arg == "--reps")
                reps = parseIntStrict(next("--reps"));
            else if (arg == "--evals")
                evals = parseIntStrict(next("--evals"));
            else if (arg == "--jobs")
                jobs = static_cast<int>(
                    parseIntStrict(next("--jobs")));
            else if (arg == "--shutdown")
                shutdown_daemon = true;
            else if (arg == "--help" || arg == "-h") {
                usageError();
                return 0;
            }
            else {
                std::cerr << "unknown option '" << arg << "'\n";
                return usageError();
            }
        }
        if (reps < 1 || evals < 1 || jobs < 1)
            fatal("--reps, --evals and --jobs must be >= 1");
        if (spawn_bin.empty() && socket_path.empty() && port < 0)
            fatal("need --spawn, --socket or --port");
    } catch (const gables::FatalError &err) {
        std::cerr << "bench_serve_loadgen: " << err.what() << '\n';
        return usageError();
    }

    ::signal(SIGPIPE, SIG_IGN);

    SpawnedDaemon daemon;
    try {
        if (!spawn_bin.empty()) {
            daemon = spawnDaemon(spawn_bin, jobs);
            socket_path = daemon.socketPath;
            shutdown_daemon = true;
        }

        // Connect (with retries while a spawned daemon boots).
        int fd = -1;
        for (int attempt = 0; attempt < 100; ++attempt) {
            fd = socket_path.empty() ? connectTcp(port)
                                     : connectUnix(socket_path);
            if (fd >= 0)
                break;
            if (daemon.pid < 0)
                break; // external daemon: fail fast below
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        if (fd < 0)
            fatal("cannot connect to the daemon: " +
                  std::string(std::strerror(errno)));
        LineClient client(fd);

        // Phase 1: corpus mix, serial round trips.
        std::vector<MixRequest> mix = corpusMix(corpus_dir);
        std::vector<double> latencies_us;
        latencies_us.reserve(mix.size() * static_cast<size_t>(reps));
        size_t errors = 0;
        Clock::time_point mix_t0 = Clock::now();
        for (long rep = 0; rep < reps; ++rep) {
            for (const MixRequest &req : mix) {
                Clock::time_point t0 = Clock::now();
                client.sendLine(req.line);
                std::string response = client.recvLine();
                latencies_us.push_back(secondsSince(t0) * 1e6);
                if (!responseOk(response)) {
                    ++errors;
                    std::cerr << "error response for " << req.bundle
                              << " (" << req.op
                              << "): " << response << '\n';
                }
            }
        }
        double mix_seconds = secondsSince(mix_t0);
        std::sort(latencies_us.begin(), latencies_us.end());
        double p50 = percentile(latencies_us, 0.50);
        double p99 = percentile(latencies_us, 0.99);
        double mix_rps =
            static_cast<double>(latencies_us.size()) / mix_seconds;

        // Phase 2: pipelined cached evals. A writer thread streams
        // all requests; this thread counts response newlines. The
        // first request warms the cache outside the timed window.
        std::string eval_line = cachedEvalRequest();
        eval_line += '\n';
        client.sendAll(eval_line.data(), eval_line.size());
        if (!responseOk(client.recvLine()))
            fatal("cached-eval warmup request failed");

        size_t total = static_cast<size_t>(evals);
        Clock::time_point tput_t0 = Clock::now();
        std::thread writer([&client, &eval_line, total] {
            // Batch ~128 requests per send: big enough for the
            // server to batch onto its pool, small enough to keep
            // the pipe moving.
            std::string chunk;
            chunk.reserve(eval_line.size() * 128);
            size_t sent = 0;
            while (sent < total) {
                chunk.clear();
                size_t n = std::min<size_t>(128, total - sent);
                for (size_t i = 0; i < n; ++i)
                    chunk += eval_line;
                client.sendAll(chunk.data(), chunk.size());
                sent += n;
            }
        });
        size_t received = 0;
        while (received < total) {
            client.recvLine();
            ++received;
        }
        writer.join();
        double tput_seconds = secondsSince(tput_t0);
        double tput_rps = static_cast<double>(total) / tput_seconds;

        if (shutdown_daemon) {
            client.sendLine("{\"id\": -1, \"op\": \"shutdown\"}");
            client.recvLine();
        }

        std::cout << "corpus mix: " << mix.size()
                  << " request(s) x " << reps << " rep(s), p50 "
                  << p50 << " us, p99 " << p99 << " us, "
                  << static_cast<long>(mix_rps) << " req/s, "
                  << errors << " error(s)\n"
                  << "cached eval: " << total << " requests in "
                  << tput_seconds << " s = "
                  << static_cast<long>(tput_rps) << " req/s\n";

        if (!json_path.empty()) {
            std::ostringstream out;
            JsonWriter json(out);
            json.beginObject();
            json.key("schema");
            json.beginObject();
            json.kv("name", "gables-serve-bench");
            json.kv("version", 1);
            json.endObject();
            json.kv("reps", static_cast<size_t>(reps));
            json.kv("jobs", static_cast<size_t>(jobs));
            json.key("workloads");
            json.beginObject();
            json.key("cached_eval_throughput");
            json.beginObject();
            json.kv("requests_per_sec", tput_rps);
            json.kv("requests", total);
            json.kv("seconds", tput_seconds);
            json.endObject();
            json.key("corpus_mix_serial");
            json.beginObject();
            json.kv("requests_per_sec", mix_rps);
            json.kv("p50_us", p50);
            json.kv("p99_us", p99);
            json.kv("requests", latencies_us.size());
            json.kv("errors", errors);
            json.endObject();
            json.endObject();
            json.endObject();
            out << '\n';
            writeFileAtomic(json_path, out.str());
            std::cout << "wrote " << json_path << '\n';
        }

        if (daemon.pid > 0) {
            int status = 0;
            ::waitpid(daemon.pid, &status, 0);
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                std::cerr << "daemon exited abnormally\n";
                return 1;
            }
        }
        return errors == 0 ? 0 : 1;
    } catch (const gables::FatalError &err) {
        std::cerr << "bench_serve_loadgen: error: " << err.what()
                  << '\n';
        if (daemon.pid > 0)
            ::kill(daemon.pid, SIGTERM);
        return 1;
    }
}
