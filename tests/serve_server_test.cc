/**
 * @file
 * Transport tests for the `gables serve` daemon (serve/server.h):
 * a real unix-domain socket round trip with the server loop on a
 * background thread — request/response ordering across one
 * connection, many concurrent and sequential connections, CRLF
 * tolerance, config errors that leave the connection serving,
 * backpressure on a client that does not read, the stop flag, the
 * atomic stats snapshot written on shutdown, and which files
 * --socket may replace.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "serve/service.h"
#include "util/json_reader.h"
#include "util/logging.h"

namespace {

using namespace gables;

/** Minimal blocking client for the test. */
class TestClient
{
  public:
    explicit TestClient(const std::string &path) { open(path); }

    ~TestClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void open(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd_, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        // start() has already bound + listened before the loop
        // thread spins up, so connect succeeds as soon as the
        // socket file exists.
        int rc = -1;
        for (int attempt = 0; attempt < 100 && rc != 0; ++attempt) {
            rc = ::connect(
                fd_, reinterpret_cast<const sockaddr *>(&addr),
                sizeof(addr));
            if (rc != 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
        ASSERT_EQ(rc, 0) << std::strerror(errno);
    }

    void send(const std::string &bytes)
    {
        ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
                  static_cast<ssize_t>(bytes.size()));
    }

    std::string recvLine()
    {
        for (;;) {
            size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            char chunk[4096];
            ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (got <= 0)
                return "";
            buf_.append(chunk, static_cast<size_t>(got));
        }
    }

    /** Shut the connection down both ways (unblocks a sender). */
    void hangUp() { ::shutdown(fd_, SHUT_RDWR); }

  private:
    int fd_ = -1;
    std::string buf_;
};

class ServeServerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        socketPath_ = ::testing::TempDir() + "serve_server_" +
                      std::to_string(::getpid()) + ".sock";
        statsPath_ = ::testing::TempDir() + "serve_server_" +
                     std::to_string(::getpid()) + ".stats.json";
        std::remove(socketPath_.c_str());
        std::remove(statsPath_.c_str());
    }

    void TearDown() override
    {
        std::remove(socketPath_.c_str());
        std::remove(statsPath_.c_str());
    }

    std::string socketPath_;
    std::string statsPath_;
};

TEST_F(ServeServerTest, RoundTripAndSnapshotOnShutdown)
{
    serve::ServeService service{serve::ServeOptions{}};
    serve::ServerOptions options;
    options.socketPath = socketPath_;
    options.statsOutPath = statsPath_;
    serve::ServeServer server(service, options);
    server.start();
    std::thread loop([&server] { server.run(); });

    {
        TestClient client(socketPath_);
        client.send("{\"id\": 1, \"op\": \"ping\"}\n"
                    "{\"id\": 2, \"op\": \"ping\"}\r\n");
        JsonValue first = parseJson(client.recvLine());
        JsonValue second = parseJson(client.recvLine());
        EXPECT_EQ(first.at("id").asNumber(), 1.0);
        EXPECT_EQ(second.at("id").asNumber(), 2.0);
        EXPECT_TRUE(second.at("ok").asBool());
        client.send("{\"id\": 3, \"op\": \"shutdown\"}\n");
        JsonValue last = parseJson(client.recvLine());
        EXPECT_TRUE(last.at("ok").asBool());
    }
    loop.join();

    // The shutdown path wrote the stats snapshot atomically; it
    // parses and reflects the handled requests.
    std::ifstream in(statsPath_);
    ASSERT_TRUE(in.is_open());
    std::ostringstream buf;
    buf << in.rdbuf();
    JsonValue report = parseJson(buf.str());
    EXPECT_EQ(report.at("schema").at("name").asString(),
              "gables-run-report");
    EXPECT_EQ(report.at("stats")
                  .at("serve.requests")
                  .at("value")
                  .asNumber(),
              3.0);
}

TEST_F(ServeServerTest, SequentialConnectionsShareTheCache)
{
    serve::ServeService service{serve::ServeOptions{}};
    serve::ServerOptions options;
    options.socketPath = socketPath_;
    serve::ServeServer server(service, options);
    server.start();
    std::thread loop([&server] { server.run(); });

    const std::string eval_req =
        "{\"id\": 1, \"op\": \"eval\", \"soc\": {\"name\": \"s\", "
        "\"ppeak_ops_per_sec\": 1e12, \"bpeak_bytes_per_sec\": 1e10, "
        "\"ips\": [{\"name\": \"cpu\", \"acceleration\": 1, "
        "\"bandwidth_bytes_per_sec\": 1e10}]}, \"usecase\": "
        "{\"name\": \"u\", \"work\": [{\"fraction\": 1, "
        "\"intensity_ops_per_byte\": 10}]}}\n";
    {
        TestClient a(socketPath_);
        a.send(eval_req);
        JsonValue doc = parseJson(a.recvLine());
        EXPECT_FALSE(
            doc.at("result").at("cache_hit").asBool());
    }
    {
        TestClient b(socketPath_);
        b.send(eval_req);
        JsonValue doc = parseJson(b.recvLine());
        EXPECT_TRUE(doc.at("result").at("cache_hit").asBool());
        b.send("{\"id\": 2, \"op\": \"shutdown\"}\n");
        b.recvLine();
    }
    loop.join();
    EXPECT_EQ(service.cache().hits(), 1u);
    EXPECT_EQ(service.cache().misses(), 1u);
}

/**
 * An IP whose peak Ai * Ppeak overflows a double: eval, explore and
 * advise each answer a config error (code 1) naming the IP, whether
 * the overflow is in the request's SoC or reached through an explore
 * knob or advise's max_scale, and the connection keeps serving.
 */
TEST_F(ServeServerTest, OverflowingIpPeakIsAConfigErrorAndServingGoesOn)
{
    serve::ServeService service{serve::ServeOptions{}};
    serve::ServerOptions options;
    options.socketPath = socketPath_;
    serve::ServeServer server(service, options);
    server.start();
    std::thread loop([&server] { server.run(); });

    // All work on the GPU, at infinite intensity (null).
    auto pair = [](const char *gpu_accel) {
        return std::string("\"soc\": {\"name\": \"over\", "
                           "\"ppeak_ops_per_sec\": 1e300, "
                           "\"bpeak_bytes_per_sec\": 1e10, \"ips\": ["
                           "{\"name\": \"CPU\", \"acceleration\": 1, "
                           "\"bandwidth_bytes_per_sec\": 6e9}, "
                           "{\"name\": \"GPU\", \"acceleration\": ") +
               gpu_accel +
               ", \"bandwidth_bytes_per_sec\": 15e9}]}, "
               "\"usecase\": {\"name\": \"gpu\", \"work\": ["
               "{\"fraction\": 0, \"intensity_ops_per_byte\": 1}, "
               "{\"fraction\": 1, \"intensity_ops_per_byte\": null}]}";
    };
    const std::string in_soc =
        "SoC 'over': IP[1] 'GPU' peak Ai * Ppeak must be finite";
    const std::string in_pack =
        "evaluator: IP[1] peak Ai * Ppeak must be finite";
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"\"op\": \"eval\", " + pair("1e10"), in_soc},
        {"\"op\": \"explore\", " + pair("1e10") +
             ", \"sweep\": [{\"knob\": \"bpeak\", \"values\": [1e10]}]",
         in_soc},
        {"\"op\": \"advise\", " + pair("1e10"), in_soc},
        {"\"op\": \"explore\", " + pair("1") +
             ", \"sweep\": [{\"knob\": \"acceleration\", \"ip\": 1, "
             "\"values\": [1, 1e10]}]",
         in_pack},
        {"\"op\": \"advise\", " + pair("1") + ", \"max_scale\": 1e10",
         in_pack},
    };
    {
        TestClient client(socketPath_);
        int id = 1;
        for (const auto &[body, message] : cases) {
            client.send("{\"id\": " + std::to_string(id++) + ", " + body +
                        "}\n");
            std::string line = client.recvLine();
            ASSERT_FALSE(line.empty()) << body;
            JsonValue doc = parseJson(line);
            EXPECT_FALSE(doc.at("ok").asBool()) << line;
            EXPECT_EQ(doc.at("error").at("code").asNumber(), 1.0) << line;
            EXPECT_EQ(doc.at("error").at("message").asString(), message)
                << line;
        }
        client.send("{\"id\": 9, \"op\": \"eval\", " + pair("1") + "}\n");
        JsonValue doc = parseJson(client.recvLine());
        EXPECT_TRUE(doc.at("ok").asBool());
        EXPECT_DOUBLE_EQ(
            doc.at("result").at("attainable_ops_per_sec").asNumber(),
            1e300);
        client.send("{\"id\": 10, \"op\": \"shutdown\"}\n");
        EXPECT_TRUE(parseJson(client.recvLine()).at("ok").asBool());
    }
    loop.join();
}

TEST_F(ServeServerTest, ConcurrentAndSequentialConnectionsEachGetPong)
{
    serve::ServeService service{serve::ServeOptions{}};
    serve::ServerOptions options;
    options.socketPath = socketPath_;
    serve::ServeServer server(service, options);
    server.start();
    std::thread loop([&server] { server.run(); });

    auto ping = [this](int id) {
        TestClient client(socketPath_);
        client.send("{\"id\": " + std::to_string(id) +
                    ", \"op\": \"ping\"}\n");
        return client.recvLine();
    };
    auto expectPong = [](const std::string &line, int id) {
        ASSERT_FALSE(line.empty()) << "connection " << id << " dropped";
        JsonValue doc = parseJson(line);
        EXPECT_EQ(doc.at("id").asNumber(), static_cast<double>(id));
        EXPECT_TRUE(doc.at("result").at("pong").asBool());
    };

    // Connections that arrive while others are mid-request are
    // accepted between polls; each must still get its own response.
    constexpr int kConcurrent = 32;
    std::vector<std::string> replies(kConcurrent);
    std::vector<std::thread> clients;
    for (int i = 0; i < kConcurrent; ++i)
        clients.emplace_back([&, i] { replies[i] = ping(i); });
    for (std::thread &t : clients)
        t.join();
    for (int i = 0; i < kConcurrent; ++i)
        expectPong(replies[i], i);

    for (int i = 0; i < 64; ++i)
        expectPong(ping(kConcurrent + i), kConcurrent + i);

    {
        TestClient client(socketPath_);
        client.send("{\"id\": 0, \"op\": \"shutdown\"}\n");
        EXPECT_TRUE(parseJson(client.recvLine()).at("ok").asBool());
    }
    loop.join();
}

TEST_F(ServeServerTest, StopFlagEndsTheLoop)
{
    serve::ServeService service{serve::ServeOptions{}};
    std::atomic<bool> stop{false};
    serve::ServerOptions options;
    options.socketPath = socketPath_;
    options.stopFlag = &stop;
    serve::ServeServer server(service, options);
    server.start();
    std::thread loop([&server] { server.run(); });
    stop.store(true);
    loop.join(); // returns promptly thanks to the poll timeout
    SUCCEED();
}

TEST_F(ServeServerTest, OversizedRequestLineDropsConnection)
{
    serve::ServeService service{serve::ServeOptions{}};
    serve::ServerOptions options;
    options.socketPath = socketPath_;
    options.maxLineBytes = 128;
    serve::ServeServer server(service, options);
    server.start();
    std::thread loop([&server] { server.run(); });

    {
        TestClient client(socketPath_);
        client.send(std::string(1024, 'x')); // no newline: buffered
        EXPECT_EQ(client.recvLine(), ""); // server closed on us
    }
    {
        // The daemon survives and still serves new connections.
        TestClient client(socketPath_);
        client.send("{\"id\": 1, \"op\": \"shutdown\"}\n");
        JsonValue doc = parseJson(client.recvLine());
        EXPECT_TRUE(doc.at("ok").asBool());
    }
    loop.join();
}

/**
 * A client pipelines 300 sweeps of 4096 points (about 24 MB of
 * responses) and reads nothing until it has sent them, or until the
 * server stops reading from it. The server must hold back rather
 * than buffer every response, and still answer every request, in
 * order, once the client reads.
 */
TEST_F(ServeServerTest, ClientThatDoesNotReadIsHeldBack)
{
    serve::ServeService service{serve::ServeOptions{}};
    serve::ServerOptions options;
    options.socketPath = socketPath_;
    serve::ServeServer server(service, options);
    server.start();
    std::thread loop([&server] { server.run(); });

    std::string values;
    for (int v = 1; v <= 4096; ++v)
        values += (v > 1 ? "," : "") + std::to_string(0.01 * v);
    const std::string model =
        "\"soc\": {\"name\": \"phone\", \"ppeak_ops_per_sec\": 40e9, "
        "\"bpeak_bytes_per_sec\": 10e9, \"ips\": [{\"name\": \"CPU\", "
        "\"acceleration\": 1, \"bandwidth_bytes_per_sec\": 6e9}, "
        "{\"name\": \"GPU\", \"acceleration\": 5, "
        "\"bandwidth_bytes_per_sec\": 15e9}]}, \"usecase\": {\"name\": "
        "\"u\", \"work\": [{\"fraction\": 0.25, "
        "\"intensity_ops_per_byte\": 8}, {\"fraction\": 0.75, "
        "\"intensity_ops_per_byte\": 0.1}]}";
    const int kRequests = 300;
    {
        TestClient client(socketPath_);
        std::thread writer([&] {
            for (int k = 0; k < kRequests; ++k)
                client.send("{\"id\": " + std::to_string(k) +
                            ", \"op\": \"sweep\", " + model +
                            ", \"axis\": \"intensity\", \"ip\": 1, "
                            "\"values\": [" + values + "]}\n");
        });
        // Let the server take in all it will before the client reads.
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        for (int k = 0; k < kRequests; ++k) {
            std::string line = client.recvLine();
            if (line.empty()) {
                ADD_FAILURE() << "connection closed before response " << k;
                client.hangUp();
                break;
            }
            JsonValue response = parseJson(line);
            EXPECT_EQ(response.at("id").asNumber(), k);
            ASSERT_TRUE(response.at("ok").asBool()) << line.substr(0, 200);
            EXPECT_EQ(response.at("result")
                          .at("attainable_ops_per_sec")
                          .size(),
                      4096u);
        }
        writer.join();
        client.send("{\"id\": \"bye\", \"op\": \"shutdown\"}\n");
        EXPECT_TRUE(parseJson(client.recvLine()).at("ok").asBool());
    }
    loop.join();
    EXPECT_GT(server.peakPendingBytes(), 0u);
    EXPECT_LT(server.peakPendingBytes(), size_t{2} << 20);
}

TEST_F(ServeServerTest, SocketPathHoldingARegularFileIsRefused)
{
    {
        std::ofstream keep(socketPath_);
        keep << "precious\n";
    }
    serve::ServeService service{serve::ServeOptions{}};
    serve::ServerOptions options;
    options.socketPath = socketPath_;
    {
        serve::ServeServer server(service, options);
        try {
            server.start();
            FAIL() << "start() bound over a regular file";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(socketPath_),
                      std::string::npos)
                << e.what();
        }
    } // the destructor must not remove it either

    std::ifstream in(socketPath_);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "precious");
}

TEST_F(ServeServerTest, StaleSocketFileIsReplaced)
{
    // A socket file left behind by a dead daemon: bound, then closed.
    int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(stale, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath_.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof(addr)),
              0)
        << std::strerror(errno);
    ::close(stale);

    serve::ServeService service{serve::ServeOptions{}};
    serve::ServerOptions options;
    options.socketPath = socketPath_;
    {
        serve::ServeServer server(service, options);
        server.start();
        std::thread loop([&server] { server.run(); });
        {
            TestClient client(socketPath_);
            client.send("{\"id\": 1, \"op\": \"shutdown\"}\n");
            JsonValue doc = parseJson(client.recvLine());
            EXPECT_TRUE(doc.at("ok").asBool());
        }
        loop.join();
    }
    // The server removed the socket it bound on the way out.
    EXPECT_NE(::access(socketPath_.c_str(), F_OK), 0);
}

} // namespace
