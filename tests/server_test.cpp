// The thermal-advice server (DESIGN.md §13): wire protocol, request
// round-trips, error handling, graceful shutdown, and — the soak — N
// concurrent clients whose responses must be byte-identical to the
// single-threaded advise_batch() reference path. The CI server-soak job
// reruns this suite under TSan and ASan.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campaign/study_setup.hpp"
#include "server/advice.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace {

using namespace hp::server;

std::string socket_path(const std::string& name) {
    // AF_UNIX paths are capped around 108 bytes; TempDir() is short on the
    // platforms this builds on, and the name is pid-qualified so parallel
    // ctest shards never collide.
    return (std::filesystem::path(::testing::TempDir()) /
            ("hp_" + name + "_" + std::to_string(::getpid()) + ".sock"))
        .string();
}

AdviceRequest make_request(const std::string& config,
                           std::vector<double> powers,
                           std::vector<double> taus = {}) {
    AdviceRequest request;
    request.config = config;
    request.thread_power_w = std::move(powers);
    request.tau_grid_s = std::move(taus);
    return request;
}

/// A deterministic pool of requests spanning both served configs, light
/// loads (static answer) and heavy loads (rotation answers).
std::vector<AdviceRequest> request_pool() {
    std::vector<AdviceRequest> pool;
    pool.push_back(make_request("paper_16core", {1.0, 1.5}));
    pool.push_back(make_request("paper_16core", {4.0, 4.0, 4.0, 4.0}));
    pool.push_back(
        make_request("paper_16core", std::vector<double>(16, 3.5)));
    pool.push_back(make_request("paper_16core", {2.0, 2.0, 6.0},
                                {0.5e-3, 1e-3, 2e-3}));
    pool.push_back(make_request("paper_16core", {}));
    for (std::size_t threads : {4u, 16u, 32u}) {
        std::vector<double> powers(threads);
        for (std::size_t t = 0; t < threads; ++t)
            powers[t] = 1.0 + 0.25 * static_cast<double>(t % 12);
        pool.push_back(make_request("paper_64core", std::move(powers)));
    }
    return pool;
}

ServerConfig test_config(const std::string& name, std::size_t threads = 2) {
    ServerConfig config;
    config.socket_path = socket_path(name);
    config.threads = threads;
    config.configs = {"paper_16core", "paper_64core"};
    return config;
}

/// The reference bytes for @p requests: the single-threaded batch path,
/// encoded exactly as the server encodes.
std::vector<std::vector<std::uint8_t>> reference_bytes(
    const ServerConfig& config, const std::vector<AdviceRequest>& requests) {
    std::vector<std::vector<std::uint8_t>> expected(requests.size());
    for (const std::string& tag : config.configs) {
        const AdviceBundle bundle(
            hp::campaign::StudySetup::by_name(tag, config.solver),
            config.defaults);
        std::vector<AdviceRequest> subset;
        std::vector<std::size_t> index;
        for (std::size_t i = 0; i < requests.size(); ++i)
            if (requests[i].config == tag) {
                subset.push_back(requests[i]);
                index.push_back(i);
            }
        const std::vector<AdviceResponse> responses =
            advise_batch(bundle, subset);
        for (std::size_t i = 0; i < subset.size(); ++i) {
            std::vector<std::uint8_t> frame;
            encode_response(responses[i], frame);
            // Strip the 8-byte frame header: raw_query returns the payload.
            expected[index[i]].assign(frame.begin() + 8, frame.end());
        }
    }
    return expected;
}

TEST(ServerProtocolTest, RequestRoundTrip) {
    const AdviceRequest request =
        make_request("paper_64core", {1.0, 2.5, 0.0}, {1e-3, 2e-3});
    std::vector<std::uint8_t> frame;
    encode_request(request, frame);
    ASSERT_GE(frame.size(), 8u);
    const std::uint32_t len = check_frame_header(frame.data(), kRequestMagic);
    ASSERT_EQ(len, frame.size() - 8);
    EXPECT_EQ(decode_request(frame.data() + 8, len), request);
}

TEST(ServerProtocolTest, ResponseRoundTrip) {
    AdviceResponse response;
    response.rotation_on = 1;
    response.thermally_safe = 1;
    response.tau_s = 2e-3;
    response.predicted_peak_c = 68.25;
    response.error_bound_c = 0.01;
    response.core_of_thread = {3, 1, 4, 1, 5};
    response.peak_core_c = {50.0, 51.5, 52.25, 49.0};
    std::vector<std::uint8_t> frame;
    encode_response(response, frame);
    const std::uint32_t len = check_frame_header(frame.data(), kResponseMagic);
    EXPECT_EQ(decode_response(frame.data() + 8, len), response);
}

TEST(ServerProtocolTest, MalformedPayloadsFailWithFileLine) {
    const AdviceRequest request = make_request("paper_64core", {1.0});
    std::vector<std::uint8_t> frame;
    encode_request(request, frame);
    try {
        decode_request(frame.data() + 8, frame.size() - 9);  // truncated
        FAIL() << "truncated payload decoded";
    } catch (const ProtocolError& e) {
        // The contract: every rejection names the protocol.cpp check that
        // fired, as file:line.
        EXPECT_NE(std::string(e.what()).find("protocol.cpp:"),
                  std::string::npos)
            << e.what();
    }
    std::uint8_t bad_header[8] = {0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0};
    EXPECT_THROW(check_frame_header(bad_header, kRequestMagic),
                 ProtocolError);
}

TEST(ServerTest, AnswersMatchTheBatchPathByteForByte) {
    const ServerConfig config = test_config("roundtrip");
    const std::vector<AdviceRequest> pool = request_pool();
    const std::vector<std::vector<std::uint8_t>> expected =
        reference_bytes(config, pool);

    AdviceServer server(config);
    AdviceClient client(server.socket_path());
    for (std::size_t i = 0; i < pool.size(); ++i)
        EXPECT_EQ(client.raw_query(pool[i]), expected[i])
            << "request " << i << " differs from the batch path";

    // Decoded view agrees too, and the answers are semantically sane.
    const AdviceResponse heavy =
        client.query(make_request("paper_16core", std::vector<double>(16, 3.5)));
    EXPECT_EQ(heavy.rotation_on, 1);
    EXPECT_EQ(heavy.core_of_thread.size(), 16u);
    EXPECT_EQ(heavy.peak_core_c.size(), 16u);
    const AdviceResponse light =
        client.query(make_request("paper_16core", {1.0, 1.5}));
    EXPECT_EQ(light.rotation_on, 0);
    EXPECT_EQ(light.thermally_safe, 1);
    EXPECT_LT(light.predicted_peak_c, heavy.predicted_peak_c);
}

TEST(ServerTest, MalformedFrameIsRejectedAndConnectionClosed) {
    const ServerConfig config = test_config("malformed");
    AdviceServer server(config);

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, server.socket_path().c_str(),
                server.socket_path().size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
    const std::uint8_t garbage[8] = {0xDE, 0xAD, 0xBE, 0xEF, 4, 0, 0, 0};
    ASSERT_EQ(::write(fd, garbage, sizeof garbage), 8);

    std::uint8_t header[8];
    std::size_t got = 0;
    while (got < sizeof header) {
        const ssize_t rc = ::read(fd, header + got, sizeof header - got);
        ASSERT_GT(rc, 0);
        got += static_cast<std::size_t>(rc);
    }
    const std::uint32_t len = check_frame_header(header, kResponseMagic);
    std::vector<std::uint8_t> payload(len);
    got = 0;
    while (got < len) {
        const ssize_t rc = ::read(fd, payload.data() + got, len - got);
        ASSERT_GT(rc, 0);
        got += static_cast<std::size_t>(rc);
    }
    std::string error;
    decode_response(payload.data(), payload.size(), &error);
    EXPECT_NE(error.find("protocol.cpp:"), std::string::npos) << error;

    // Framing is unrecoverable: the server closes after answering.
    std::uint8_t byte = 0;
    EXPECT_EQ(::read(fd, &byte, 1), 0);
    ::close(fd);
}

TEST(ServerTest, StalledPartialFrameIsDroppedAndWorkerFreed) {
    // Regression: accepted sockets must be non-blocking, or the stall
    // budget in read_full (EAGAIN->poll) never engages and a client that
    // sends half a header parks a worker in read() forever. With a single
    // worker that wedges the whole server and makes stop() hang.
    ServerConfig config = test_config("stall", /*threads=*/1);
    config.io_timeout_ms = 200;
    AdviceServer server(config);

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, server.socket_path().c_str(),
                server.socket_path().size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
    const std::uint8_t half_header[4] = {0x00, 0x00, 0x00, 0x00};
    ASSERT_EQ(::write(fd, half_header, sizeof half_header), 4);

    // The server must give up on the stalled connection within the budget:
    // EOF on our end, well before the 5 s default would allow.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    ssize_t rc = -1;
    std::uint8_t byte = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        rc = ::recv(fd, &byte, 1, MSG_DONTWAIT);
        if (rc >= 0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(rc, 0) << "stalled connection was not dropped";
    ::close(fd);

    // The lone worker is free again: a well-behaved client gets answered.
    AdviceClient client(server.socket_path());
    const AdviceResponse ok =
        client.query(make_request("paper_16core", {1.0, 1.0}));
    EXPECT_EQ(ok.core_of_thread.size(), 2u);
}

TEST(ServerTest, SemanticErrorKeepsTheConnectionUsable) {
    const ServerConfig config = test_config("semantic");
    AdviceServer server(config);
    AdviceClient client(server.socket_path());

    std::string error;
    std::vector<std::uint8_t> payload =
        client.raw_query(make_request("no_such_config", {1.0}));
    decode_response(payload.data(), payload.size(), &error);
    EXPECT_NE(error.find("not served"), std::string::npos) << error;

    payload = client.raw_query(make_request("paper_16core", {-1.0}));
    decode_response(payload.data(), payload.size(), &error);
    EXPECT_NE(error.find("non-negative"), std::string::npos) << error;

    // Same connection still answers valid requests.
    const AdviceResponse ok =
        client.query(make_request("paper_16core", {1.0, 1.0}));
    EXPECT_EQ(ok.core_of_thread.size(), 2u);
    // Every answered frame counts as served; the two error answers are
    // additionally tallied under server.errors.request.
    EXPECT_EQ(server.requests_served(), 3u);
    const hp::obs::MetricsSnapshot snapshot = server.metrics();
    for (const auto& counter : snapshot.counters) {
        if (counter.name == "server.errors.request") {
            EXPECT_EQ(counter.value, 2u);
        }
    }
}

TEST(ServerTest, GracefulStopDrainsInFlightRequests) {
    const ServerConfig config = test_config("drain");
    AdviceServer server(config);
    const std::vector<AdviceRequest> pool = request_pool();
    const std::vector<std::vector<std::uint8_t>> expected =
        reference_bytes(config, pool);

    AdviceClient client(server.socket_path());
    // Prime the connection so it is parked idle with the dispatcher.
    EXPECT_EQ(client.raw_query(pool[0]), expected[0]);

    // Stop now; the request goes on the wire a beat later, inside the
    // shutdown sweep's grace window. It must still be answered — and
    // answered correctly — before the connection closes.
    std::thread stopper([&server] { server.stop(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(client.raw_query(pool[2]), expected[2]);
    stopper.join();
    EXPECT_FALSE(server.running());

    // After stop() returns the socket is gone.
    EXPECT_THROW(AdviceClient second(config.socket_path),
                 std::runtime_error);
}

TEST(ServerTest, ConcurrentClientsMatchTheBatchPath) {
    ServerConfig config = test_config("soak", /*threads=*/4);
    const std::vector<AdviceRequest> pool = request_pool();
    const std::vector<std::vector<std::uint8_t>> expected =
        reference_bytes(config, pool);

    AdviceServer server(config);
    const std::size_t clients = 8;
    const std::size_t rounds = 20;
    std::atomic<std::uint64_t> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            AdviceClient client(server.socket_path());
            for (std::size_t r = 0; r < rounds; ++r) {
                // Deterministic per-client request order, all from the pool;
                // the shared concurrent cache sees heavy cross-client reuse.
                const std::size_t i = (c + r) % pool.size();
                if (client.raw_query(pool[i]) != expected[i])
                    mismatches.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(server.requests_served(), clients * rounds);

    // server.* observability: totals line up and the derived gauges exist.
    const hp::obs::MetricsSnapshot snapshot = server.metrics();
    std::uint64_t requests = 0, cache_hits = 0, cache_misses = 0;
    for (const auto& counter : snapshot.counters) {
        if (counter.name == "server.requests") requests = counter.value;
        if (counter.name == "server.cache_hits") cache_hits = counter.value;
        if (counter.name == "server.cache_misses")
            cache_misses = counter.value;
    }
    EXPECT_EQ(requests, clients * rounds);
    EXPECT_GT(cache_hits + cache_misses, 0u);
    EXPECT_GT(cache_hits, 0u);  // the pool repeats: reuse must be visible
    bool saw_p99 = false, saw_qps = false;
    for (const auto& gauge : snapshot.gauges) {
        if (gauge.name == "server.latency_p99_us") saw_p99 = gauge.value > 0;
        if (gauge.name == "server.qps") saw_qps = gauge.value > 0;
    }
    EXPECT_TRUE(saw_p99);
    EXPECT_TRUE(saw_qps);
}

TEST(ServerTest, ServesWithCacheDisabledAndStillMatches) {
    ServerConfig config = test_config("nocache");
    config.cache_entries = 0;
    const std::vector<AdviceRequest> pool = request_pool();
    const std::vector<std::vector<std::uint8_t>> expected =
        reference_bytes(config, pool);
    AdviceServer server(config);
    AdviceClient client(server.socket_path());
    for (std::size_t i = 0; i < pool.size(); ++i)
        EXPECT_EQ(client.raw_query(pool[i]), expected[i]);
}

TEST(ServerTest, RejectsBadConfiguration) {
    ServerConfig config = test_config("badcfg");
    config.configs = {"not_a_config"};
    EXPECT_THROW(AdviceServer server(config), std::invalid_argument);
    config = test_config("nothreads");
    config.threads = 0;
    EXPECT_THROW(AdviceServer server(config), std::invalid_argument);
    config = test_config("dupe");
    config.configs = {"paper_16core", "paper_16core"};
    EXPECT_THROW(AdviceServer server(config), std::invalid_argument);
    config = test_config("badtimeout");
    config.io_timeout_ms = 0;
    EXPECT_THROW(AdviceServer server(config), std::invalid_argument);
}

TEST(ServerTest, RejectsInvalidAdviceDefaults) {
    // Rejected at startup, before any request: with an empty default
    // ladder a grid-less request has no rung to scan, and zero samples per
    // epoch cannot certify any rung.
    ServerConfig config = test_config("emptyladder");
    config.defaults.tau_ladder_s.clear();
    EXPECT_THROW(AdviceServer server(config), std::invalid_argument);
    config = test_config("nosamples");
    config.defaults.samples_per_epoch = 0;
    EXPECT_THROW(AdviceServer server(config), std::invalid_argument);
}

}  // namespace
