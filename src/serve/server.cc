#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/atomic_file.h"
#include "util/logging.h"

namespace gables {
namespace serve {

namespace {

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/**
 * Clear @p path for bind(): remove a stale socket file left by an
 * earlier run, and refuse to touch anything else found there.
 */
void
removeStaleSocket(const std::string &path)
{
    struct stat st{};
    if (::lstat(path.c_str(), &st) != 0) {
        if (errno == ENOENT)
            return;
        fatal("cannot inspect socket path '" + path +
              "': " + std::strerror(errno));
    }
    if (!S_ISSOCK(st.st_mode))
        fatal("refusing to replace '" + path + "': not a socket");
    if (::unlink(path.c_str()) != 0)
        fatal("cannot remove stale socket '" + path +
              "': " + std::strerror(errno));
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

ServeServer::ServeServer(ServeService &service,
                         const ServerOptions &options)
    : service_(service), options_(options)
{
}

ServeServer::~ServeServer()
{
    closeAll();
    closeFd(listenFd_);
    // Unlink only the socket this server bound, not whatever may
    // have replaced it at the path since.
    struct stat st{};
    if (socketIno_ != 0 &&
        ::lstat(options_.socketPath.c_str(), &st) == 0 &&
        S_ISSOCK(st.st_mode) && st.st_dev == socketDev_ &&
        st.st_ino == socketIno_)
        ::unlink(options_.socketPath.c_str());
}

void
ServeServer::start()
{
    if (!options_.socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (options_.socketPath.size() >= sizeof(addr.sun_path))
            fatal("socket path too long: " + options_.socketPath);
        std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            fatal(std::string("cannot create unix socket: ") +
                  std::strerror(errno));
        // A stale socket file from a previous run blocks bind().
        removeStaleSocket(options_.socketPath);
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0)
            fatal("cannot bind '" + options_.socketPath +
                  "': " + std::strerror(errno));
        struct stat st{};
        if (::lstat(options_.socketPath.c_str(), &st) == 0) {
            socketDev_ = st.st_dev;
            socketIno_ = st.st_ino;
        }
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            fatal(std::string("cannot create TCP socket: ") +
                  std::strerror(errno));
        int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        // Loopback only: the daemon speaks an unauthenticated
        // protocol and must not be reachable from the network.
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<uint16_t>(options_.port));
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0)
            fatal("cannot bind 127.0.0.1:" +
                  std::to_string(options_.port) + ": " +
                  std::strerror(errno));
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listenFd_,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            port_ = ntohs(bound.sin_port);
    }
    setNonBlocking(listenFd_);
    if (::listen(listenFd_, 64) != 0)
        fatal(std::string("cannot listen: ") + std::strerror(errno));
}

bool
ServeServer::stopRequested() const
{
    return stop_.load() || service_.shutdownRequested() ||
           (options_.stopFlag != nullptr && options_.stopFlag->load());
}

void
ServeServer::acceptPending()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return;
        setNonBlocking(fd);
        ++accepted_;
        Connection conn;
        conn.fd = fd;
        connections_.push_back(std::move(conn));
    }
}

bool
ServeServer::readAndDispatch(Connection &conn)
{
    char buf[65536];
    ssize_t got = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (got == 0)
        return conn.pending() > 0; // peer closed; flush then drop
    if (got < 0)
        return errno == EAGAIN || errno == EWOULDBLOCK ||
               errno == EINTR;
    conn.inbuf.append(buf, static_cast<size_t>(got));

    // Frame complete lines; everything after the last newline stays
    // buffered for the next read.
    std::vector<std::string> lines;
    size_t start = 0;
    for (;;) {
        size_t nl = conn.inbuf.find('\n', start);
        if (nl == std::string::npos)
            break;
        size_t len = nl - start;
        // Tolerate CRLF clients.
        if (len > 0 && conn.inbuf[start + len - 1] == '\r')
            --len;
        if (len > 0)
            lines.push_back(conn.inbuf.substr(start, len));
        start = nl + 1;
    }
    conn.inbuf.erase(0, start);
    if (conn.inbuf.size() > options_.maxLineBytes) {
        warn("serve: dropping connection with oversized request "
             "line (" +
             std::to_string(conn.inbuf.size()) + " bytes)");
        return false;
    }
    if (lines.empty())
        return true;

    std::vector<std::string> responses = service_.handleBatch(lines);
    // Drop the sent prefix once per batch (reading stops while the
    // unsent rest is at the backpressure mark, so this stays small).
    conn.outbuf.erase(0, conn.outSent);
    conn.outSent = 0;
    for (const std::string &response : responses) {
        conn.outbuf += response;
        conn.outbuf += '\n';
    }
    if (conn.pending() > peakPending_.load()) // run() is the only writer
        peakPending_.store(conn.pending());
    return flushWrites(conn);
}

bool
ServeServer::flushWrites(Connection &conn)
{
    while (conn.pending() > 0) {
        ssize_t sent = ::send(conn.fd, conn.outbuf.data() + conn.outSent,
                              conn.pending(), MSG_DONTWAIT | MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR)
                return true; // poll for POLLOUT
            return false;
        }
        conn.outSent += static_cast<size_t>(sent);
    }
    conn.outbuf.clear();
    conn.outSent = 0;
    return true;
}

void
ServeServer::closeAll()
{
    for (Connection &conn : connections_)
        closeFd(conn.fd);
    connections_.clear();
}

void
ServeServer::writeStatsSnapshot()
{
    if (options_.statsOutPath.empty())
        return;
    try {
        writeFileAtomic(options_.statsOutPath,
                        service_.statsReportJson());
    } catch (const FatalError &err) {
        warn(std::string("serve: cannot write stats snapshot: ") +
             err.what());
    }
}

size_t
ServeServer::run()
{
    GABLES_ASSERT(listenFd_ >= 0, "run() before start()");
    while (!stopRequested()) {
        std::vector<pollfd> fds;
        fds.push_back(pollfd{listenFd_, POLLIN, 0});
        for (const Connection &conn : connections_) {
            // Backpressure: a client that pipelines requests without
            // reading the responses is not read from until its
            // pending output drains below the mark.
            short events =
                conn.pending() < options_.maxLineBytes ? POLLIN : 0;
            if (conn.pending() > 0)
                events |= POLLOUT;
            fds.push_back(pollfd{conn.fd, events, 0});
        }
        // A finite timeout keeps stop flags responsive even when the
        // daemon is idle.
        int ready = ::poll(fds.data(),
                           static_cast<nfds_t>(fds.size()), 100);
        if (ready < 0 && errno != EINTR)
            fatal(std::string("poll failed: ") +
                  std::strerror(errno));
        if (ready <= 0)
            continue;
        // Only the connections that existed when fds was built have
        // an entry there; ones accepted below wait for the next poll.
        const size_t polled = fds.size() - 1;
        if (fds[0].revents & POLLIN)
            acceptPending();
        std::vector<Connection> alive;
        alive.reserve(connections_.size());
        size_t visited = 0;
        for (size_t i = 0; i < polled; ++i) {
            Connection &conn = connections_[i];
            short revents = fds[i + 1].revents;
            bool keep = true;
            if (revents & (POLLERR | POLLNVAL))
                keep = false;
            if (keep && (revents & POLLOUT))
                keep = flushWrites(conn);
            if (keep && (fds[i + 1].events & POLLIN) &&
                (revents & (POLLIN | POLLHUP)))
                keep = readAndDispatch(conn);
            // A peer that half-closed after its requests still gets
            // its buffered responses; drop once drained.
            if (keep && (revents & POLLHUP) && conn.pending() == 0)
                keep = false;
            if (keep) {
                alive.push_back(std::move(conn));
            } else {
                closeFd(conn.fd);
            }
            visited = i + 1;
            if (service_.shutdownRequested())
                break;
        }
        // Keep connections not visited before a shutdown break, and
        // the ones accepted this round.
        for (size_t i = visited; i < connections_.size(); ++i)
            alive.push_back(std::move(connections_[i]));
        connections_ = std::move(alive);
    }
    // Flush responses already queued (e.g. the shutdown ack) with a
    // short grace period, then snapshot telemetry.
    for (Connection &conn : connections_)
        flushWrites(conn);
    closeAll();
    writeStatsSnapshot();
    return accepted_;
}

} // namespace serve
} // namespace gables
