/**
 * @file
 * Cluster-layer tests: rendezvous placement (balanced, join-order
 * independent, minimally disruptive), the length-prefixed frame
 * codec, stale-Unix-socket reclamation, the worker-side framed pump
 * (byte-equal to Service::handleLine), the router's hello, the
 * error lines it answers itself and its admission (block, shed), and
 * the router end to end —
 * including the headline chaos claim: a 3-shard cluster with workers
 * SIGKILLed and respawned mid-load emits a response stream
 * byte-identical to a single-process `gopim_serve --envelope=stable`
 * run.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "cluster/router.hh"
#include "cluster/shards.hh"
#include "cluster/wire.hh"
#include "cluster/worker.hh"
#include "common/flags.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/net.hh"
#include "core/options.hh"
#include "obs/metrics.hh"
#include "serve/request.hh"
#include "serve/service.hh"
#include "serve_doubles.hh"

namespace gopim {
namespace {

// ---------------------------------------------------------------
// Rendezvous placement
// ---------------------------------------------------------------

std::vector<std::string>
shardNames(size_t count)
{
    std::vector<std::string> names;
    for (size_t i = 0; i < count; ++i)
        names.push_back("shard" + std::to_string(i));
    return names;
}

/** Synthetic cache-key-shaped inputs (16-char hex digests). */
std::vector<std::string>
syntheticKeys(size_t count)
{
    std::vector<std::string> keys;
    for (size_t i = 0; i < count; ++i)
        keys.push_back(
            hexDigest64(fnv1a64("request-" + std::to_string(i))));
    return keys;
}

TEST(RendezvousTest, BalancedWithinPinnedBoundAcrossShardCounts)
{
    const std::vector<std::string> keys = syntheticKeys(4096);
    for (const size_t shardCount : {2u, 4u, 8u}) {
        const std::vector<std::string> names =
            shardNames(shardCount);
        std::vector<size_t> perShard(shardCount, 0);
        for (const std::string &key : keys)
            ++perShard[cluster::rendezvousShard(key, names)];
        const double avg = static_cast<double>(keys.size()) /
                           static_cast<double>(shardCount);
        const size_t hi =
            *std::max_element(perShard.begin(), perShard.end());
        const size_t lo =
            *std::min_element(perShard.begin(), perShard.end());
        // Pinned fairness bound: an FNV-chained rendezvous hash over
        // 4096 keys stays within ±25% of a perfect split.
        EXPECT_LE(static_cast<double>(hi), avg * 1.25)
            << shardCount << " shards";
        EXPECT_GE(static_cast<double>(lo), avg * 0.75)
            << shardCount << " shards";
    }
}

TEST(RendezvousTest, PlacementIgnoresJoinOrder)
{
    const std::vector<std::string> keys = syntheticKeys(256);
    std::vector<std::string> names = shardNames(5);
    std::vector<std::string> reversed(names.rbegin(), names.rend());
    std::vector<std::string> rotated = names;
    std::rotate(rotated.begin(), rotated.begin() + 2, rotated.end());
    for (const std::string &key : keys) {
        const std::string &winner =
            names[cluster::rendezvousShard(key, names)];
        EXPECT_EQ(winner,
                  reversed[cluster::rendezvousShard(key, reversed)]);
        EXPECT_EQ(winner,
                  rotated[cluster::rendezvousShard(key, rotated)]);
    }
}

TEST(RendezvousTest, AddingShardMovesOnlyKeysItWins)
{
    const std::vector<std::string> keys = syntheticKeys(2048);
    const std::vector<std::string> names = shardNames(4);
    std::vector<std::string> grown = names;
    grown.push_back("shard4");
    size_t moved = 0;
    for (const std::string &key : keys) {
        const std::string &before =
            names[cluster::rendezvousShard(key, names)];
        const std::string &after =
            grown[cluster::rendezvousShard(key, grown)];
        if (before != after) {
            // A key only ever moves TO the new shard.
            EXPECT_EQ(after, "shard4") << key;
            ++moved;
        }
    }
    // Roughly 1/5 of the keyspace belongs to the 5th shard.
    EXPECT_GT(moved, keys.size() / 10);
    EXPECT_LT(moved, keys.size() / 3);
}

TEST(RendezvousTest, EndpointParsing)
{
    cluster::ShardSpec spec;
    std::string error;
    ASSERT_TRUE(
        cluster::parseEndpoint("127.0.0.1:9100", &spec, &error))
        << error;
    EXPECT_EQ(spec.name, "127.0.0.1:9100");
    EXPECT_EQ(spec.host, "127.0.0.1");
    EXPECT_EQ(spec.port, 9100);
    EXPECT_FALSE(cluster::parseEndpoint("nohost", &spec, &error));
    EXPECT_FALSE(
        cluster::parseEndpoint("host:notaport", &spec, &error));
    EXPECT_FALSE(cluster::parseEndpoint("host:0", &spec, &error));
}

// ---------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------

struct SocketPair
{
    int a = -1;
    int b = -1;
    SocketPair()
    {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
            a = fds[0];
            b = fds[1];
        }
    }
    ~SocketPair()
    {
        if (a >= 0)
            ::close(a);
        if (b >= 0)
            ::close(b);
    }
    void
    closeA()
    {
        ::close(a);
        a = -1;
    }
};

TEST(FrameTest, RoundTripIncludingEmptyPayload)
{
    SocketPair pair;
    ASSERT_GE(pair.a, 0);
    const std::vector<std::string> payloads = {
        "{\"dataset\":\"ddi\"}", "", std::string(70000, 'x')};
    for (const std::string &payload : payloads)
        ASSERT_TRUE(net::writeFrame(pair.a, payload));
    for (const std::string &payload : payloads) {
        std::string got;
        ASSERT_EQ(net::readFrame(pair.b, &got), net::IoStatus::Ok);
        EXPECT_EQ(got, payload);
    }
}

TEST(FrameTest, CleanCloseIsEofMidFrameCloseIsError)
{
    {
        SocketPair pair;
        pair.closeA();
        std::string got;
        EXPECT_EQ(net::readFrame(pair.b, &got), net::IoStatus::Eof);
    }
    {
        SocketPair pair;
        // Half a length header, then close: an error, not EOF.
        const char partial[2] = {0x10, 0x00};
        ASSERT_EQ(::write(pair.a, partial, 2), 2);
        pair.closeA();
        std::string got;
        std::string error;
        EXPECT_EQ(net::readFrame(pair.b, &got, &error),
                  net::IoStatus::Error);
        EXPECT_FALSE(error.empty());
    }
}

TEST(FrameTest, OversizedFrameRejected)
{
    SocketPair pair;
    // A forged oversized length prefix must not allocate; the reader
    // rejects it before reading the body.
    const uint32_t huge = (1u << 26) + 1;
    char header[4] = {static_cast<char>(huge & 0xff),
                      static_cast<char>((huge >> 8) & 0xff),
                      static_cast<char>((huge >> 16) & 0xff),
                      static_cast<char>((huge >> 24) & 0xff)};
    ASSERT_EQ(::write(pair.a, header, 4), 4);
    std::string got;
    std::string error;
    EXPECT_EQ(net::readFrame(pair.b, &got, &error),
              net::IoStatus::Error);
    EXPECT_NE(error.find("frame"), std::string::npos);
}

// ---------------------------------------------------------------
// Stale Unix sockets
// ---------------------------------------------------------------

TEST(UnixSocketTest, StaleSocketReclaimedLiveSocketRefused)
{
    const std::string path =
        testing::TempDir() + "gopim_stale_test.sock";
    ::unlink(path.c_str());

    // A listener that dies without unlinking leaves a stale file.
    std::string error;
    int fd = net::listenUnix(path, &error);
    ASSERT_GE(fd, 0) << error;

    // While it lives, the path must be refused, not stolen.
    std::string liveError;
    EXPECT_LT(net::listenUnix(path, &liveError), 0);
    EXPECT_NE(liveError.find("live"), std::string::npos)
        << liveError;

    ::close(fd); // dead server, socket file left behind

    bool removedStale = false;
    fd = net::listenUnix(path, &error, &removedStale);
    EXPECT_GE(fd, 0) << error;
    EXPECT_TRUE(removedStale);
    ::close(fd);
    ::unlink(path.c_str());
}

TEST(UnixSocketTest, RefusesNonSocketFile)
{
    const std::string path =
        testing::TempDir() + "gopim_notasocket.txt";
    {
        std::ofstream out(path);
        out << "hello\n";
    }
    std::string error;
    EXPECT_LT(net::listenUnix(path, &error), 0);
    EXPECT_NE(error.find("not a socket"), std::string::npos)
        << error;
    ::unlink(path.c_str());
}

// ---------------------------------------------------------------
// Worker-side framed pump
// ---------------------------------------------------------------

serve::ServiceConfig
stubConfig(size_t jobs)
{
    serve::ServiceConfig config;
    config.jobs = jobs;
    config.defaults.sim.engineOverride =
        std::make_shared<StubEngine>();
    return config;
}

TEST(WorkerPumpTest, ResponsesMatchHandleLineByteForByte)
{
    serve::Service service(stubConfig(2));
    serve::Service reference(stubConfig(1));
    const serve::ServiceConfig config = stubConfig(1);
    const std::string fp = serve::defaultsFingerprint(
        config.defaults, config.hw);

    SocketPair pair;
    ASSERT_GE(pair.a, 0);
    cluster::WorkerOptions options;
    options.defaultsFp = fp;
    std::thread worker([&] {
        cluster::pumpFramedConnection(service, pair.b, options);
    });

    ASSERT_TRUE(net::writeFrame(
        pair.a, cluster::helloLine("test", serve::Envelope::Stable,
                                   fp)));
    std::string reply;
    ASSERT_EQ(net::readFrame(pair.a, &reply), net::IoStatus::Ok);
    ASSERT_EQ(cluster::checkHelloReply(reply, fp), "") << reply;

    std::vector<std::string> lines;
    for (int seed = 1; seed <= 24; ++seed)
        lines.push_back("{\"id\":\"q" + std::to_string(seed) +
                        "\",\"dataset\":\"ddi\",\"seed\":" +
                        std::to_string(seed % 5 + 1) + "}");
    lines.push_back("{\"unknown_key\":1}");
    lines.push_back("not json");
    for (const std::string &line : lines)
        ASSERT_TRUE(net::writeFrame(pair.a, line));
    for (const std::string &line : lines) {
        std::string response;
        ASSERT_EQ(net::readFrame(pair.a, &response),
                  net::IoStatus::Ok);
        EXPECT_EQ(response, reference.handleLine(
                                line, serve::Envelope::Stable));
    }
    pair.closeA();
    worker.join();
}

TEST(WorkerPumpTest, FramedLinesEqualProcessStreamLines)
{
    // Results, repeats, an error line per decode error code, and
    // stats queries, whose counts must agree on both transports.
    std::vector<std::string> lines;
    for (int i = 0; i < 16; ++i)
        lines.push_back("{\"id\":\"m" + std::to_string(i) +
                        "\",\"dataset\":\"ddi\",\"seed\":" +
                        std::to_string(i % 5 + 1) + "}");
    const std::vector<std::string> odd = {
        "not json",
        R"({"type":"stats"})",
        "[1,2,3]",
        R"({"id":"t","seed":"seven"})",
        R"({"id":"r","micro_batch":0})",
        R"({"id":"d","dataset":"no-such-graph"})",
        R"({"id":"f","datset":"ddi"})",
        R"({"type":"stats"})",
    };
    for (size_t i = 0; i < odd.size(); ++i)
        lines.insert(lines.begin() + static_cast<long>(2 * i + 1),
                     odd[i]);
    lines.push_back(R"({"type":"stats"})");

    std::string text;
    for (const std::string &line : lines)
        text += line + "\n";
    serve::Service streamed(stubConfig(2));
    std::istringstream in(text);
    std::ostringstream out;
    streamed.processStream(in, out, false, serve::Envelope::Stable);

    const serve::ServiceConfig config = stubConfig(2);
    serve::Service service(config);
    const std::string fp =
        serve::defaultsFingerprint(config.defaults, config.hw);
    SocketPair pair;
    ASSERT_GE(pair.a, 0);
    cluster::WorkerOptions options;
    options.defaultsFp = fp;
    std::thread worker([&] {
        cluster::pumpFramedConnection(service, pair.b, options);
    });
    std::string framed;
    std::string reply;
    if (net::writeFrame(pair.a, cluster::helloLine(
                                    "test", serve::Envelope::Stable,
                                    fp)) &&
        net::readFrame(pair.a, &reply) == net::IoStatus::Ok) {
        for (const std::string &line : lines)
            EXPECT_TRUE(net::writeFrame(pair.a, line));
        for (size_t i = 0; i < lines.size(); ++i) {
            std::string response;
            if (net::readFrame(pair.a, &response) != net::IoStatus::Ok)
                break;
            framed += response + "\n";
        }
    }
    pair.closeA();
    worker.join();

    EXPECT_EQ(reply, cluster::helloOkLine(fp));
    EXPECT_EQ(framed, out.str());
    EXPECT_NE(out.str().find("\"errors\":6"), std::string::npos)
        << out.str();
}

TEST(WorkerPumpTest, RejectsBadProtocolAndMismatchedDefaults)
{
    {
        serve::Service service(stubConfig(1));
        SocketPair pair;
        cluster::WorkerOptions options;
        options.defaultsFp = "0123456789abcdef";
        std::thread worker([&] {
            cluster::pumpFramedConnection(service, pair.b, options);
        });
        ASSERT_TRUE(
            net::writeFrame(pair.a, "{\"proto\":\"bogus.v9\"}"));
        std::string reply;
        ASSERT_EQ(net::readFrame(pair.a, &reply), net::IoStatus::Ok);
        EXPECT_NE(reply.find("protocol_mismatch"),
                  std::string::npos)
            << reply;
        worker.join();
    }
    {
        serve::Service service(stubConfig(1));
        SocketPair pair;
        cluster::WorkerOptions options;
        options.defaultsFp = "0123456789abcdef";
        std::thread worker([&] {
            cluster::pumpFramedConnection(service, pair.b, options);
        });
        ASSERT_TRUE(net::writeFrame(
            pair.a,
            cluster::helloLine("test", serve::Envelope::Stable,
                               "ffffffffffffffff")));
        std::string reply;
        ASSERT_EQ(net::readFrame(pair.a, &reply), net::IoStatus::Ok);
        EXPECT_NE(reply.find("defaults_mismatch"), std::string::npos)
            << reply;
        worker.join();
    }
}

TEST(WorkerPumpTest, DefaultsMismatchBytesNameTheWorker)
{
    serve::Service service(stubConfig(1));
    SocketPair pair;
    cluster::WorkerOptions options;
    options.defaultsFp = "0123456789abcdef";
    std::thread worker([&] {
        cluster::pumpFramedConnection(service, pair.b, options);
    });
    ASSERT_TRUE(net::writeFrame(
        pair.a, cluster::helloLine("test", serve::Envelope::Full,
                                   "ffffffffffffffff")));
    std::string reply;
    ASSERT_EQ(net::readFrame(pair.a, &reply), net::IoStatus::Ok);
    EXPECT_EQ(reply,
              "{\"type\":\"error\",\"code\":\"defaults_mismatch\","
              "\"error\":\"serving defaults mismatch: worker "
              "'0123456789abcdef' vs peer 'ffffffffffffffff' (start "
              "both with identical --engine/--seed/fault flags)\"}");
    worker.join();
}

// ---------------------------------------------------------------
// Router over in-process workers
// ---------------------------------------------------------------

/**
 * `count` in-process workers — a serve::Service each, serving the
 * router's one framed connection on its own loopback port until the
 * router closes it — and the router config that reaches them. Declare
 * the router after it, so the router closes its connections first.
 */
struct InProcessShards
{
    std::string error; ///< "" when every listener is up
    std::vector<std::unique_ptr<serve::Service>> services;
    std::vector<std::string> names;
    cluster::RouterConfig routerConfig;

    InProcessShards(size_t count, const serve::ServiceConfig &config)
    {
        options_.defaultsFp =
            serve::defaultsFingerprint(config.defaults, config.hw);
        routerConfig.defaults = config.defaults;
        routerConfig.hw = config.hw;
        for (size_t i = 0; i < count; ++i) {
            uint16_t port = 0;
            listeners_.emplace_back(
                net::listenTcp("127.0.0.1", 0, &port, &error));
            if (listeners_.back().get() < 0)
                return;
            services.push_back(std::make_unique<serve::Service>(config));
            workers_.emplace_back([listenFd = listeners_.back().get(),
                                   service = services.back().get(),
                                   this] {
                net::Fd conn(net::acceptWithTimeout(listenFd, 10000));
                if (conn.get() >= 0)
                    cluster::pumpFramedConnection(*service, conn.get(),
                                                  options_);
            });
            cluster::ShardSpec spec;
            spec.name = "shard" + std::to_string(i);
            spec.host = "127.0.0.1";
            spec.port = port;
            names.push_back(spec.name);
            routerConfig.shards.push_back(spec);
        }
    }

  private:
    cluster::WorkerOptions options_;
    std::vector<net::Fd> listeners_;
    // Last: joined before everything the workers use goes away.
    std::vector<std::jthread> workers_;
};

TEST(RouterKeyTest, ShardResponseKeyAndPlacementMatchCacheKey)
{
    // A non-default geometry, so neither side can lean on a hardware
    // section serialized for the paper default.
    reram::AcceleratorConfig hw =
        reram::AcceleratorConfig::paperDefault();
    hw.crossbar.rows = 128;
    hw.pe.crossbarsPerPe = 16;

    constexpr size_t kShards = 3;
    serve::ServiceConfig serviceConfig;
    serviceConfig.jobs = 1;
    serviceConfig.hw = hw;
    InProcessShards shards(kShards, serviceConfig);
    ASSERT_EQ(shards.error, "");
    const auto &services = shards.services;
    const std::vector<std::string> &names = shards.names;

    const char *const bodies[] = {
        R"({"dataset":"ddi"})",
        R"({"dataset":"Cora","system":"Serial"})",
        R"({"dataset":"ddi","engine":"event","seed":3})",
        R"({"dataset":"Cora","theta":0.5,"baseline":"Serial"})",
        R"({"dataset":"ddi","stuck_on_rate":0.01,"repair":"ecc"})",
        R"({"workload":"gnn-infer","dataset":"Cora","partition":"col"})",
        R"({"workload":"cnn-infer","dataset":"mnist"})",
        R"({"dataset":"Cora","seed":5,"micro_batch":32})",
        R"({"dataset":"ddi","seed":2})",
        R"({"dataset":"ddi","seed":4})",
        R"({"dataset":"Cora","system":"ReGraphX","seed":6})",
    };
    std::vector<size_t> landed(kShards, 0);
    {
        cluster::Router router(shards.routerConfig);
        ASSERT_EQ(router.start(), "");
        for (const char *text : bodies) {
            json::Value body;
            ASSERT_TRUE(json::Value::parse(text, &body));
            serve::Request request;
            ASSERT_TRUE(
                serve::parseRequest(body, serviceConfig.defaults,
                                    &request)
                    .ok());
            serve::ResolvedRequest resolved;
            ASSERT_TRUE(serve::resolveRequest(request, &resolved).ok());
            const std::string key = serve::cacheKey(resolved, hw);

            // One request per stream: the shard whose miss count
            // moves is the one the router picked.
            std::vector<uint64_t> before;
            for (const auto &service : services)
                before.push_back(service->misses());
            std::istringstream in(std::string(text) + "\n");
            std::ostringstream out;
            router.processStream(in, out);

            json::Value response;
            ASSERT_TRUE(json::Value::parse(out.str(), &response))
                << out.str();
            const json::Value *responseKey = response.find("key");
            ASSERT_NE(responseKey, nullptr) << out.str();
            EXPECT_EQ(responseKey->asString(), key) << text;

            const size_t expected = cluster::rendezvousShard(key, names);
            for (size_t i = 0; i < kShards; ++i)
                EXPECT_EQ(services[i]->misses() - before[i],
                          i == expected ? 1u : 0u)
                    << text << " on " << names[i];
            ++landed[expected];
        }
    }
    // The bodies spread over every shard, so each placement above
    // was a real choice.
    for (size_t i = 0; i < kShards; ++i)
        EXPECT_GE(landed[i], 1u) << names[i];
}

// ---------------------------------------------------------------
// Router front end (never started: nothing here reaches a shard)
// ---------------------------------------------------------------

/**
 * Run Router::processFramed on one end of a socketpair; with `start`
 * set, Router::start() runs first and its answer is `startError`.
 */
struct FramedRouter
{
    cluster::Router router;
    SocketPair pair;
    std::string startError;
    std::thread session;

    explicit FramedRouter(cluster::RouterConfig config, bool start = false)
        : router(std::move(config)),
          startError(start ? router.start() : ""),
          session([this] { router.processFramed(pair.b); })
    {
    }
    ~FramedRouter()
    {
        pair.closeA();
        session.join();
    }

    /** Send one frame, read the reply ("" when the router closed). */
    std::string
    exchange(const std::string &frame)
    {
        std::string reply;
        if (!net::writeFrame(pair.a, frame) ||
            net::readFrame(pair.a, &reply) != net::IoStatus::Ok)
            return "";
        return reply;
    }
};

TEST(RouterHelloTest, BadProtocolIsAProtocolMismatch)
{
    FramedRouter framed{cluster::RouterConfig{}};
    EXPECT_EQ(framed.exchange(R"({"proto":"bogus.v9"})"),
              "{\"type\":\"error\",\"code\":\"protocol_mismatch\","
              "\"error\":\"unsupported protocol 'bogus.v9' "
              "(expected gopim.cluster.v1)\"}");
}

TEST(RouterHelloTest, OnlyTheStableEnvelopeIsServed)
{
    const std::string rejection =
        "{\"type\":\"error\",\"code\":\"protocol_mismatch\","
        "\"error\":\"the router serves only the stable envelope "
        "(cache counters are per-shard)\"}";
    {
        FramedRouter framed{cluster::RouterConfig{}};
        EXPECT_EQ(framed.exchange(
                      R"({"proto":"gopim.cluster.v1","role":"client"})"),
                  rejection);
    }
    {
        FramedRouter framed{cluster::RouterConfig{}};
        EXPECT_EQ(framed.exchange(cluster::helloLine(
                      "client", serve::Envelope::Full, "")),
                  rejection);
    }
}

TEST(RouterHelloTest, WrongFingerprintIsADefaultsMismatchNamingTheRouter)
{
    const cluster::RouterConfig config;
    const std::string fp =
        serve::defaultsFingerprint(config.defaults, config.hw);
    FramedRouter framed{config};
    EXPECT_EQ(framed.exchange(cluster::helloLine(
                  "client", serve::Envelope::Stable, "ffffffffffffffff")),
              "{\"type\":\"error\",\"code\":\"defaults_mismatch\","
              "\"error\":\"serving defaults mismatch: router '" +
                  fp +
                  "' vs peer 'ffffffffffffffff' (start both with "
                  "identical --engine/--seed/fault flags)\"}");
}

TEST(RouterHelloTest, GoodHelloIsAcceptedAndStatsAreAnswered)
{
    const cluster::RouterConfig config;
    const std::string fp =
        serve::defaultsFingerprint(config.defaults, config.hw);
    FramedRouter framed{config};
    EXPECT_EQ(framed.exchange(cluster::helloLine(
                  "client", serve::Envelope::Stable, fp)),
              cluster::helloOkLine(fp));
    json::Value stats;
    ASSERT_TRUE(json::Value::parse(framed.exchange(R"({"type":"stats"})"),
                                   &stats));
    EXPECT_EQ(stats.find("type")->asString(), "stats");
    EXPECT_EQ(stats.find("requests")->asInt(), 1);
}

/** Make reads on `fd` fail after `seconds` instead of blocking. */
bool
setReceiveDeadline(int fd, time_t seconds)
{
    const timeval limit{seconds, 0};
    return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit,
                        sizeof(limit)) == 0;
}

TEST(RouterFrontEndTest, BlankFrameIsAnsweredLikeTheService)
{
    // Only stdin skips blank lines: a frame always gets one answer,
    // the one a worker gives.
    const cluster::RouterConfig config;
    const std::string fp =
        serve::defaultsFingerprint(config.defaults, config.hw);
    FramedRouter framed{config};
    ASSERT_EQ(framed.exchange(cluster::helloLine(
                  "client", serve::Envelope::Stable, fp)),
              cluster::helloOkLine(fp));
    ASSERT_TRUE(net::writeFrame(framed.pair.a, "  "));
    ASSERT_TRUE(net::writeFrame(framed.pair.a, R"({"type":"stats"})"));
    ASSERT_TRUE(setReceiveDeadline(framed.pair.a, 5));
    std::string first;
    std::string second;
    ASSERT_EQ(net::readFrame(framed.pair.a, &first), net::IoStatus::Ok);
    ASSERT_EQ(net::readFrame(framed.pair.a, &second), net::IoStatus::Ok);
    serve::Service service(stubConfig(1));
    EXPECT_EQ(first, service.handleLine("  ", serve::Envelope::Stable));
    EXPECT_NE(second.find(R"("type":"stats")"), std::string::npos)
        << second;
}

TEST(RouterFrontEndTest, ErrorLinesEqualTheServiceStableLines)
{
    // Each row: a line the router rejects itself, and the error code
    // that rejection must carry.
    const std::pair<const char *, const char *> rows[] = {
        {"this is not json", "bad_json"},
        {R"({"id":"a","dataset":)", "bad_json"},
        {"[1,2,3]", "bad_request"},
        {R"("ddi")", "bad_request"},
        {R"({"id":"t","seed":"seven"})", "bad_type"},
        {R"({"id":7,"dataset":"ddi"})", "bad_type"},
        {R"({"id":"r","micro_batch":0})", "out_of_range"},
        {R"({"id":"w","dataset":"ddi","epochs":64103990})",
         "out_of_range"},
        {R"({"dataset":"ddi","epochs":64103990})", "out_of_range"},
        {R"({"id":"d","dataset":"no-such-graph"})", "unknown_name"},
        {R"({"id":"s","system":"NoSuchSystem"})", "unknown_name"},
        {R"({"id":"e","engine":"warp-drive"})", "unknown_name"},
        {R"({"id":"l","workload":"gnn-train-ish"})", "unknown_name"},
        {R"({"id":"f","datset":"ddi"})", "unknown_field"},
        {R"({"id":"h","micro_btach":32})", "unknown_field"},
        {R"({"id":"g","workload":"gnn-infer","dataset":"Cora",)"
         R"("stuck_on_rate":0.01})",
         "bad_request"},
    };
    serve::Service service(stubConfig(1));
    cluster::RouterConfig config;
    config.defaults = stubConfig(1).defaults;
    cluster::Router router(std::move(config));
    for (const auto &[line, code] : rows) {
        const std::string expected =
            service.handleLine(line, serve::Envelope::Stable);
        ASSERT_EQ(expected.rfind(R"({"type":"error")", 0), 0u)
            << line << " -> " << expected;
        EXPECT_NE(expected.find(std::string(R"("code":")") + code +
                                "\""),
                  std::string::npos)
            << line << " -> " << expected;
        std::istringstream in(std::string(line) + "\n");
        std::ostringstream out;
        router.processStream(in, out);
        EXPECT_EQ(out.str(), expected + "\n") << line;
    }
    // The typo hint is part of the bytes both sides must agree on.
    EXPECT_NE(service.handleLine(R"({"datset":"ddi"})",
                                 serve::Envelope::Stable)
                  .find("did you mean 'dataset'"),
              std::string::npos);
}

// ---------------------------------------------------------------
// Router session pump (in-process workers)
// ---------------------------------------------------------------

/** One in-process shard whose simulations wait in `gate`. */
serve::ServiceConfig
gatedConfig(const std::shared_ptr<GateEngine> &gate)
{
    serve::ServiceConfig config;
    config.jobs = 1;
    config.defaults.sim.engineOverride = gate;
    return config;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(RouterTest, StdinAnswersBeforeTheNextLineArrives)
{
    auto gate = std::make_shared<GateEngine>();
    InProcessShards shards(1, gatedConfig(gate));
    ASSERT_EQ(shards.error, "");
    cluster::Router router(shards.routerConfig);
    ASSERT_EQ(router.start(), "");

    HeldInput input("{\"id\":\"first\",\"dataset\":\"Cora\"}\n");
    SharedOutput output;
    std::istream in(&input);
    std::ostream out(&output);
    std::thread stream([&] { router.processStream(in, out); });

    // The line reached its shard while its simulation could not
    // finish; the client now waits for the answer before it sends
    // anything.
    EXPECT_TRUE(input.waitUntilHeld(std::chrono::seconds(5)));
    gate->release();
    std::string seen;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while ((seen = output.text()).empty() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    input.release();
    stream.join();

    EXPECT_NE(seen.find("\"id\":\"first\""), std::string::npos)
        << "no answer before end of input: '" << seen << "'";
    EXPECT_EQ(output.text(), seen);
}

TEST(RouterTest, StatsQueryCountsEveryRejectionBeforeIt)
{
    // The result ahead of the invalid line is held in the gate, so
    // the error line cannot be emitted before the stats query is
    // answered; the query must count it all the same.
    for (int repeat = 0; repeat < 3; ++repeat) {
        auto gate = std::make_shared<GateEngine>();
        InProcessShards shards(1, gatedConfig(gate));
        ASSERT_EQ(shards.error, "");
        cluster::Router router(shards.routerConfig);
        ASSERT_EQ(router.start(), "");

        HeldInput input("{\"dataset\":\"Cora\",\"seed\":1}\n"
                        "not json\n"
                        "{\"type\":\"stats\"}\n");
        std::istream in(&input);
        std::ostringstream out;
        std::thread stream([&] { router.processStream(in, out); });
        EXPECT_TRUE(input.waitUntilHeld(std::chrono::seconds(5)));
        gate->release();
        input.release();
        stream.join();

        const std::vector<std::string> lines = splitLines(out.str());
        ASSERT_EQ(lines.size(), 3u) << out.str();
        EXPECT_NE(lines[1].find("\"code\":\"bad_json\""),
                  std::string::npos)
            << lines[1];
        EXPECT_NE(lines[2].find("\"errors\":1"), std::string::npos)
            << "repeat " << repeat << ": " << lines[2];
    }
}

TEST(RouterTest, FramedClientGetsEveryAnswerBeforeHalfClose)
{
    const serve::ServiceConfig config = stubConfig(2);
    InProcessShards shards(3, config);
    ASSERT_EQ(shards.error, "");
    FramedRouter framed{shards.routerConfig, true};
    ASSERT_EQ(framed.startError, "");
    const std::string fp =
        serve::defaultsFingerprint(config.defaults, config.hw);
    ASSERT_EQ(framed.exchange(cluster::helloLine(
                  "client", serve::Envelope::Stable, fp)),
              cluster::helloOkLine(fp));

    std::vector<std::string> lines;
    for (int i = 0; i < 24; ++i)
        lines.push_back("{\"id\":\"f" + std::to_string(i) +
                        "\",\"dataset\":\"ddi\",\"seed\":" +
                        std::to_string(i % 5 + 1) + "}");
    lines.push_back("not json");
    for (const std::string &line : lines)
        ASSERT_TRUE(net::writeFrame(framed.pair.a, line));

    // Every answer must arrive while the write side is still open.
    ASSERT_TRUE(setReceiveDeadline(framed.pair.a, 5));
    serve::Service reference(stubConfig(1));
    for (const std::string &line : lines) {
        std::string response;
        ASSERT_EQ(net::readFrame(framed.pair.a, &response),
                  net::IoStatus::Ok)
            << "no answer to " << line << " before half-close";
        EXPECT_EQ(response,
                  reference.handleLine(line, serve::Envelope::Stable));
    }
}

// ---------------------------------------------------------------
// Router admission (one gated in-process shard)
// ---------------------------------------------------------------

/** Three distinct requests, ids "a", "b" and "c". */
std::vector<std::string>
admissionLines()
{
    std::vector<std::string> lines;
    for (const char *id : {"a", "b", "c"})
        lines.push_back(std::string("{\"id\":\"") + id +
                        "\",\"dataset\":\"Cora\",\"seed\":" +
                        std::to_string(lines.size() + 1) + "}");
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string text;
    for (const std::string &line : lines)
        text += line + "\n";
    return text;
}

/** The answers a single gated service gives, gate open. */
std::vector<std::string>
stableAnswers(const std::vector<std::string> &lines)
{
    auto open = std::make_shared<GateEngine>();
    open->release();
    serve::Service reference(gatedConfig(open));
    std::vector<std::string> answers;
    for (const std::string &line : lines)
        answers.push_back(
            reference.handleLine(line, serve::Envelope::Stable));
    return answers;
}

TEST(RouterAdmissionTest, SaturatedShardBlocksUntilAnAnswerFrees)
{
    auto gate = std::make_shared<GateEngine>();
    InProcessShards shards(1, gatedConfig(gate));
    ASSERT_EQ(shards.error, "");
    shards.routerConfig.admission.maxInflightPerShard = 2;
    cluster::Router router(shards.routerConfig);
    ASSERT_EQ(router.start(), "");

    const std::vector<std::string> lines = admissionLines();
    HeldInput input(joinLines(lines));
    std::istream in(&input);
    std::ostringstream out;
    std::thread stream([&] { router.processStream(in, out); });

    // Two requests fill the shard's window; the third waits in
    // dispatch, so the shard sees no more while nothing completes.
    const serve::Service &shard = *shards.services[0];
    auto received = [&] { return shard.hits() + shard.misses(); };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (received() < 2 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(received(), 2u);
    const obs::Gauge *depthMax =
        router.metrics().findGauge("cluster.shard0.inflight.max");
    EXPECT_EQ(depthMax ? depthMax->value() : -1, 2);

    gate->release();
    input.release();
    stream.join();

    EXPECT_EQ(splitLines(out.str()), stableAnswers(lines));
    EXPECT_EQ(received(), 3u);
}

TEST(RouterAdmissionTest, ShedLineNamesTheJournalDepth)
{
    auto gate = std::make_shared<GateEngine>();
    InProcessShards shards(1, gatedConfig(gate));
    ASSERT_EQ(shards.error, "");
    shards.routerConfig.admission.maxInflightPerShard = 2;
    shards.routerConfig.admission.shedAbove = 2;
    cluster::Router router(shards.routerConfig);
    ASSERT_EQ(router.start(), "");

    const std::vector<std::string> lines = admissionLines();
    HeldInput input(joinLines(lines));
    std::istream in(&input);
    std::ostringstream out;
    std::thread stream([&] { router.processStream(in, out); });

    // The third line is shed at once, so the reader reaches the end
    // of input while both answers ahead of it are held in the gate.
    EXPECT_TRUE(input.waitUntilHeld(std::chrono::seconds(5)));
    gate->release();
    input.release();
    stream.join();

    std::vector<std::string> expected = stableAnswers(lines);
    expected[2] =
        R"({"type":"error","id":"c","code":"overloaded",)"
        R"("error":"shard 'shard0' is overloaded (2 in flight); )"
        R"(request shed"})";
    EXPECT_EQ(splitLines(out.str()), expected);
    const obs::Counter *shed =
        router.metrics().findCounter("cluster.shed.count");
    ASSERT_NE(shed, nullptr);
    EXPECT_EQ(shed->value(), 1u);
}

// ---------------------------------------------------------------
// Router end to end (real worker processes)
// ---------------------------------------------------------------

#ifdef GOPIM_SERVE_BIN

/** A fresh directory, removed with everything in it at scope exit. */
struct ScratchDir
{
    std::string path; ///< "" when the directory could not be made

    explicit ScratchDir(std::string made) : path(std::move(made)) {}
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
    ~ScratchDir()
    {
        if (!path.empty())
            std::filesystem::remove_all(path);
    }
};

ScratchDir
tempDirFor(const std::string &tag)
{
    std::string tmpl = testing::TempDir() + tag + ".XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *dir = ::mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr);
    return ScratchDir(dir ? std::string(dir) : std::string());
}

/** The ≥1k-request chaos stream: mixed datasets/systems/seeds. */
std::string
chaosRequestStream(int repetitions)
{
    std::string stream;
    int id = 0;
    for (int rep = 0; rep < repetitions; ++rep) {
        for (const char *dataset : {"ddi", "Cora"}) {
            for (const char *system :
                 {"GoPIM", "Serial", "ReGraphX"}) {
                for (int seed = 1; seed <= 3; ++seed) {
                    for (int microBatch : {32, 64}) {
                        stream +=
                            "{\"id\":\"r" + std::to_string(id++) +
                            "\",\"dataset\":\"" + dataset +
                            "\",\"system\":\"" + system +
                            "\",\"seed\":" + std::to_string(seed) +
                            ",\"micro_batch\":" +
                            std::to_string(microBatch) + "}\n";
                    }
                }
            }
        }
        // Invalid lines exercise the router-side error path, which
        // must also be byte-identical to the worker's.
        stream += "{\"dataset\":\"no-such-graph\"}\n";
        stream += "{\"bogus_field\":1}\n";
        stream += "this is not json\n";
    }
    return stream;
}

/** Golden bytes: the single-process stable-envelope run. */
std::string
singleProcessGolden(const std::string &requests,
                    const std::string &dir)
{
    const std::string inPath = dir + "/requests.jsonl";
    const std::string outPath = dir + "/golden.jsonl";
    {
        std::ofstream out(inPath);
        out << requests;
    }
    const std::string cmd = std::string(GOPIM_SERVE_BIN) +
                            " --envelope=stable --jobs=4 < " +
                            inPath + " > " + outPath +
                            " 2>/dev/null";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    std::ifstream in(outPath);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/**
 * The defaults a flag-less gopim_serve process serves with, derived
 * through the same addSimFlags path — the hello fingerprint check
 * requires the router side to match them exactly.
 */
serve::Request
workerDefaults()
{
    Flags flags("test", "");
    core::addSimFlags(flags);
    const char *argv[] = {"test"};
    flags.parse(1, const_cast<char **>(argv));
    serve::Request defaults;
    defaults.sim = core::simContextFromFlags(flags);
    defaults.fault = core::faultConfigFromFlags(flags);
    return defaults;
}

std::vector<cluster::ShardSpec>
spawnedShards(size_t count, const std::string &dir)
{
    std::vector<cluster::ShardSpec> specs;
    for (size_t i = 0; i < count; ++i) {
        cluster::ShardSpec spec;
        spec.name = "shard" + std::to_string(i);
        spec.command = {GOPIM_SERVE_BIN, "--jobs=2"};
        spec.portFile = dir + "/" + spec.name + ".port";
        specs.push_back(std::move(spec));
    }
    return specs;
}

TEST(RouterChaosTest, ByteIdentityAcrossWorkerKillAndRestart)
{
    // Declared before the router: removed after its workers are gone.
    const ScratchDir dir = tempDirFor("gopim_cluster_chaos");
    ASSERT_FALSE(dir.path.empty());
    // 12 reps x 36 valid + 3 invalid = 468 + ... => make it >= 1000.
    const std::string requests = chaosRequestStream(26); // 1014 lines
    const std::string golden = singleProcessGolden(requests, dir.path);
    ASSERT_FALSE(golden.empty());

    cluster::RouterConfig config;
    config.shards = spawnedShards(3, dir.path);
    config.defaults = workerDefaults();
    config.chaosKillEvery = 150;
    config.chaosKillCount = 2;
    config.chaosSeed = 7;
    config.metrics = std::make_shared<obs::MetricsRegistry>();
    cluster::Router router(std::move(config));
    ASSERT_EQ(router.start(), "");

    std::istringstream in(requests);
    std::ostringstream out;
    router.processStream(in, out);

    // The headline claim: kill-and-restart under load changes
    // nothing about the response bytes or their order.
    EXPECT_EQ(out.str(), golden);
    // ...and the recovery is visible in the metrics the operator
    // exports and in the router's stats line, which reads them.
    const json::Value stats = router.statsJson();
    EXPECT_GE(router.metrics()
                  .findCounter("cluster.restart.count")
                  ->value(),
              1u);
    EXPECT_GE(stats.find("restarts")->asInt(), 1);
    EXPECT_EQ(router.metrics()
                  .findCounter("cluster.chaos.kill.count")
                  ->value(),
              2u);
    EXPECT_EQ(stats.find("chaos_kills")->asInt(), 2);
    EXPECT_EQ(
        router.metrics().findCounter("cluster.request.count")->value(),
        1014u);
    EXPECT_EQ(stats.find("requests")->asInt(), 1014);
    EXPECT_EQ(router.metrics().findCounter("cluster.shed.count")->value(),
              0u);
    EXPECT_EQ(stats.find("shed")->asInt(), 0);
}

TEST(RouterShedTest, UndersizedShardShedsVisiblyInMetrics)
{
    // Declared before the router: removed after its worker is gone.
    const ScratchDir dir = tempDirFor("gopim_cluster_shed");
    ASSERT_FALSE(dir.path.empty());

    cluster::RouterConfig config;
    config.shards = spawnedShards(1, dir.path);
    config.defaults = workerDefaults();
    // Use a deliberately slow single worker thread.
    config.shards[0].command = {GOPIM_SERVE_BIN, "--jobs=1"};
    config.admission.maxInflightPerShard = 4;
    config.admission.shedAbove = 4;
    config.metrics = std::make_shared<obs::MetricsRegistry>();
    cluster::Router router(std::move(config));
    ASSERT_EQ(router.start(), "");

    // Unique seeds defeat the cache; the event engine and extra
    // epochs pad the per-request cost so the dispatcher outruns the
    // undersized shard.
    std::string requests;
    for (int i = 0; i < 64; ++i)
        requests += "{\"id\":\"s" + std::to_string(i) +
                    "\",\"dataset\":\"Cora\",\"engine\":\"event\","
                    "\"seed\":" +
                    std::to_string(i + 1) + ",\"epochs\":4}\n";
    std::istringstream in(requests);
    std::ostringstream out;
    router.processStream(in, out);

    const uint64_t shed =
        router.metrics().findCounter("cluster.shed.count")->value();
    EXPECT_EQ(
        router.metrics().findCounter("cluster.request.count")->value(),
        64u);
    EXPECT_EQ(router.statsJson().find("requests")->asInt(), 64);
    EXPECT_GE(shed, 1u) << "undersized shard never shed";
    // Every shed is a structured, machine-readable rejection...
    size_t overloadedLines = 0;
    std::istringstream lines(out.str());
    std::string line;
    size_t total = 0;
    while (std::getline(lines, line)) {
        ++total;
        if (line.find("\"code\":\"overloaded\"") !=
            std::string::npos)
            ++overloadedLines;
    }
    EXPECT_EQ(total, 64u); // in-order, one response per request
    EXPECT_EQ(overloadedLines, shed);
    // ...and the shed counter the decision used is the one the stats
    // line reports.
    EXPECT_EQ(static_cast<uint64_t>(
                  router.statsJson().find("shed")->asInt()),
              shed);
}

TEST(RouterStartTest, FailsFastOnDeadEndpoint)
{
    // Grab an ephemeral port, then close the listener so nothing is
    // behind it.
    std::string error;
    uint16_t port = 0;
    const int fd = net::listenTcp("127.0.0.1", 0, &port, &error);
    ASSERT_GE(fd, 0) << error;
    ::close(fd);

    cluster::ShardSpec spec;
    ASSERT_TRUE(cluster::parseEndpoint(
        "127.0.0.1:" + std::to_string(port), &spec, &error));
    cluster::RouterConfig config;
    config.shards = {spec};
    config.connectAttempts = 2;
    config.connectDelayMs = 10;
    cluster::Router router(std::move(config));
    const std::string problem = router.start();
    EXPECT_NE(problem.find("connect"), std::string::npos) << problem;
}

#endif // GOPIM_SERVE_BIN

} // namespace
} // namespace gopim
