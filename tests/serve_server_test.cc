/**
 * @file
 * Transport tests for the `gables serve` daemon (serve/server.h):
 * a real unix-domain socket round trip with the server loop on a
 * background thread — request/response ordering across one
 * connection, many concurrent and sequential connections, CRLF
 * tolerance, the stop flag, and the atomic stats snapshot written on
 * shutdown.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
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

} // namespace
