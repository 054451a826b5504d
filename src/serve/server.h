/**
 * @file
 * Socket transport for the `gables serve` daemon: a single-threaded
 * poll(2) loop accepting connections on a unix-domain socket or a
 * loopback TCP port, framing newline-delimited requests, and handing
 * complete batches to the ServeService (which fans them onto its
 * worker pool). Responses stream back in request order.
 *
 * The loop exits when the service has handled a "shutdown" request,
 * when stop() is called, or when the configured stop flag (typically
 * set by a SIGINT/SIGTERM handler) becomes true; on exit the final
 * telemetry snapshot is written atomically to the configured stats
 * path, so a killed daemon never leaves truncated JSON behind.
 */

#ifndef GABLES_SERVE_SERVER_H
#define GABLES_SERVE_SERVER_H

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "serve/service.h"

namespace gables {
namespace serve {

/** Transport configuration. */
struct ServerOptions {
    /** Unix-domain socket path ("" = use TCP). */
    std::string socketPath;
    /** Loopback TCP port (0 = ephemeral; resolved port() after
     * start()). Ignored when socketPath is set. */
    int port = 0;
    /** Atomic RunReport snapshot written on exit ("" = off). */
    std::string statsOutPath;
    /** Upper bound on one request line; longer requests drop the
     * connection (guards the daemon against unbounded buffering).
     * Also the backpressure mark for responses: the server stops
     * reading from a connection whose unsent output has reached this
     * size, and resumes once writes drain it below. */
    size_t maxLineBytes = 1 << 20;
    /** External stop flag polled by run() (e.g. set from a signal
     * handler); nullptr = none. */
    const std::atomic<bool> *stopFlag = nullptr;
};

/**
 * The daemon's accept/read/dispatch/write loop.
 */
class ServeServer
{
  public:
    /**
     * @param service The request processor (not owned).
     * @param options Transport configuration.
     */
    ServeServer(ServeService &service, const ServerOptions &options);

    /** Closes the listener and any remaining connections, and
     * removes the socket file start() bound (nothing else). */
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /**
     * Bind and listen. In unix mode a stale socket file at the path is
     * replaced; any other file there is left alone and refused.
     * @throws FatalError when the socket cannot be created or bound,
     *         or the path holds something other than a socket.
     */
    void start();

    /** @return The bound TCP port (after start(); 0 for unix). */
    int port() const { return port_; }

    /**
     * Serve until shutdown is requested. Returns the number of
     * connections accepted over the server's lifetime.
     */
    size_t run();

    /** Ask a running run() loop to exit (safe from other threads). */
    void stop() { stop_.store(true); }

    /** @return The most unsent response bytes any one connection has
     * held (safe from other threads). */
    size_t peakPendingBytes() const { return peakPending_.load(); }

  private:
    struct Connection {
        int fd = -1;
        std::string inbuf;
        /** Responses; bytes before outSent are already sent. */
        std::string outbuf;
        size_t outSent = 0;
        bool closing = false;

        size_t pending() const { return outbuf.size() - outSent; }
    };

    bool stopRequested() const;
    void acceptPending();
    /** @return False when the connection must be dropped. */
    bool readAndDispatch(Connection &conn);
    /** @return False when the connection must be dropped. */
    bool flushWrites(Connection &conn);
    void closeAll();
    void writeStatsSnapshot();

    ServeService &service_;
    const ServerOptions options_;

    int listenFd_ = -1;
    int port_ = 0;
    /** Identity of the socket file start() bound; ino 0 = none. */
    dev_t socketDev_ = 0;
    ino_t socketIno_ = 0;
    std::vector<Connection> connections_;
    std::atomic<bool> stop_{false};
    std::atomic<size_t> peakPending_{0};
    size_t accepted_ = 0;
};

} // namespace serve
} // namespace gables

#endif // GABLES_SERVE_SERVER_H
