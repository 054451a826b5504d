/**
 * @file
 * Request handling for the `gables serve` daemon, independent of any
 * socket: one JSON request line in, one JSON response line out
 * (protocol.h). The transport layer (server.h) and the tests drive
 * this directly.
 *
 * Supported ops:
 *  - "ping"     liveness probe.
 *  - "eval"     evaluate a (SocSpec, Usecase) pair — a repeat pair
 *               renders the model result its LRU cache entry holds.
 *  - "sweep"    sweep one model parameter over a value list, on a
 *               grid pack compiled from the cached pair.
 *  - "explore"  enumerate a design grid and return the Pareto
 *               frontier (DesignExplorer::exploreFrontier).
 *  - "advise"   ranked improvement moves (Advisor::advise).
 *  - "stats"    the service's telemetry as a compact RunReport.
 *  - "shutdown" request daemon shutdown after this response.
 *
 * Model inputs come either inline ("soc" + "usecase" objects in the
 * shape core/serialize.h emits) or from a config file on the server's
 * filesystem ("config" path + optional "usecase" name).
 *
 * Requests may carry "deadline_ms": the server refuses to start (and
 * abandons between phases) work past the deadline and answers with a
 * "deadline" error; "deadline_ms": 0 is deterministically expired,
 * which tests use.
 *
 * Thread-safety: handleLine() may be called from any thread;
 * handleBatch() fans a batch onto the service's worker pool, looks
 * the cache up and commits telemetry in request order, so a batch's
 * responses and stats are identical to serial processing. The
 * service holds no mutable model state: cache entries are immutable,
 * and its only locks are the cache's LRU mutex and the stats mutex.
 */

#ifndef GABLES_SERVE_SERVICE_H
#define GABLES_SERVE_SERVICE_H

#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/cache.h"
#include "telemetry/stats.h"

namespace gables {

namespace parallel {
class ThreadPool;
}

namespace serve {

/** Service configuration. */
struct ServeOptions {
    /** Worker threads for request batches (>= 1; 1 = serial). */
    int jobs = 1;
    /** Evaluator-cache capacity (entries). */
    size_t cacheCapacity = 64;
    /** JSONL request/response tee path ("" = off). Each handled
     * request appends {"request": ..., "response": ...}. */
    std::string recordPath;
};

/**
 * The daemon's request processor.
 */
class ServeService
{
  public:
    explicit ServeService(const ServeOptions &options);
    ~ServeService();

    ServeService(const ServeService &) = delete;
    ServeService &operator=(const ServeService &) = delete;

    /**
     * Handle one request line.
     *
     * @param line One JSON request (no trailing newline required).
     * @return The response line (no trailing newline). Never throws:
     *         failures become error responses.
     */
    std::string handleLine(const std::string &line);

    /**
     * Handle a batch of request lines, processing them on the worker
     * pool when one is configured. Responses are in request order
     * and telemetry commits in request order.
     */
    std::vector<std::string>
    handleBatch(const std::vector<std::string> &lines);

    /** @return True once a shutdown request has been handled. */
    bool shutdownRequested() const { return shutdown_.load(); }

    /**
     * @return The service telemetry as a RunReport JSON document
     * (pretty-printed; the "stats" op returns the same document
     * compacted to one line).
     */
    std::string statsReportJson();

    /** @return The evaluator cache (counters for tests/telemetry). */
    const EvaluatorCache &cache() const { return cache_; }

    /** @return The configuration the service was built with. */
    const ServeOptions &options() const { return options_; }

  private:
    struct Outcome {
        std::string response;
        std::string op = "invalid";
        bool ok = false;
        bool deadlineExpired = false;
        bool shutdown = false;
        uint64_t sweepPoints = 0;
        /** Model evaluations the handler performed (eval = 1, sweep
         * = points served, explore = ExploreStats::evals). */
        uint64_t modelEvals = 0;
        double seconds = 0.0;
    };

    struct Staged;
    struct Op;

    /** The protocol's ops, in stats registration order: the one list
     * op validation, the op counters and the stages read. */
    static const std::vector<Op> &ops();

    /** Process one request without touching the stats registry
     * (safe from pool workers; the cache is internally locked): the
     * three stages below, in order. */
    Outcome process(const std::string &line);

    /** Run @p stage unless an earlier one failed; what it throws
     * becomes the error response. */
    template <typename Stage>
    void guard(Staged &s, Stage &&stage);
    /** Parse the line and resolve its model inputs. */
    void parseStage(Staged &s, const std::string &line);
    /** Look an eval or sweep pair up in the cache. */
    void acquireStage(Staged &s);
    /** Evaluate and render the response; record the latency. */
    void runStage(Staged &s);

    /** Apply one outcome's telemetry and record tee (serial). */
    void commit(const std::string &line, const Outcome &outcome);

    /** Refresh the cache gauges and hand the telemetry RunReport to
     * @p write, under the stats lock. */
    template <typename Write>
    void writeStats(Write &&write);

    const ServeOptions options_;
    EvaluatorCache cache_;
    std::unique_ptr<parallel::ThreadPool> pool_;

    std::atomic<bool> shutdown_{false};

    // The registry is not thread-safe; stats_mutex_ guards it and the
    // record stream. commit() runs under it. The references are
    // resolved once in the constructor (registry entries are
    // pointer-stable) so the per-request commit pays no name lookups.
    std::mutex statsMutex_;
    telemetry::StatsRegistry registry_;
    struct StatsRefs {
        telemetry::Counter *requests = nullptr;
        telemetry::Counter *responsesOk = nullptr;
        telemetry::Counter *responsesError = nullptr;
        telemetry::Counter *deadlineExpired = nullptr;
        telemetry::Counter *sweepPoints = nullptr;
        telemetry::Counter *modelEvals = nullptr;
        telemetry::Counter *bytesIn = nullptr;
        telemetry::Counter *bytesOut = nullptr;
        telemetry::Distribution *requestSeconds = nullptr;
        std::map<std::string, telemetry::Counter *> ops;
    };
    StatsRefs stats_;
    std::ofstream record_;
};

} // namespace serve
} // namespace gables

#endif // GABLES_SERVE_SERVICE_H
