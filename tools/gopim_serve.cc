/**
 * @file
 * gopim_serve: long-lived batch simulation service. Reads JSONL
 * requests ({"dataset": ..., "system": ..., "engine": ..., knobs})
 * from stdin — or accepts connections on a Unix-domain socket with
 * --socket, or serves the framed cluster transport with --tcp —
 * dispatches them onto a worker pool with bounded-queue
 * backpressure, answers repeated requests from a content-addressed
 * LRU result cache, and writes one deterministic JSONL response per
 * request in input order.
 *
 * The server's own --engine/--seed/--jobs/... flags (the uniform
 * set from core::addSimFlags) provide the defaults a request
 * inherits for any field it omits. Shutdown is graceful: EOF (or
 * SIGINT/SIGTERM in socket/TCP mode) stops intake, in-flight
 * simulations drain, and cache statistics are flushed.
 *
 * As a cluster shard (see src/cluster): --tcp=0 binds an ephemeral
 * port, --port-file reports it to the spawning router, and the
 * framed protocol negotiates the stable response envelope so shard
 * responses stay byte-comparable to a single-process run.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cluster/worker.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "common/net.hh"
#include "core/options.hh"
#include "serve/request.hh"
#include "serve/service.hh"

namespace {

using namespace gopim;

volatile std::sig_atomic_t g_stop = 0;

void
handleSignal(int)
{
    g_stop = 1;
}

void
flushStats(const serve::Service &service,
           const serve::Service::StreamStats &stats)
{
    const auto cache = service.cacheStats();
    inform("served ", stats.requests, " request(s), ", stats.errors,
           " error(s); cache: ", service.hits(), " hit(s), ",
           service.misses(), " miss(es), ", cache.entries, "/",
           cache.capacity, " entries, ", cache.evictions,
           " eviction(s)");
}

/** Read everything the client sends (until half-close). */
std::string
readAll(int fd)
{
    std::string data;
    char buf[4096];
    while (true) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            break;
        data.append(buf, static_cast<size_t>(n));
    }
    return data;
}

/**
 * Socket server loop: each connection is one JSONL batch; the
 * client half-closes its write side, we respond in request order
 * and close. SIGINT/SIGTERM stop intake and drain.
 */
int
serveSocket(serve::Service &service, const std::string &path,
            bool emitStats, serve::Envelope envelope)
{
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);
    std::string error;
    bool removedStale = false;
    const int listenFd = net::listenUnix(path, &error, &removedStale);
    if (listenFd < 0)
        fatal(error);
    if (removedStale)
        inform("removed stale socket ", path,
               " left by a dead server");
    inform("listening on unix socket ", path,
           " (SIGINT/SIGTERM to drain and exit)");

    serve::Service::StreamStats total;
    while (!g_stop) {
        const int conn = net::acceptWithTimeout(listenFd, 200);
        if (conn < 0)
            continue;
        std::istringstream in(readAll(conn));
        std::ostringstream out;
        const auto stats =
            service.processStream(in, out, emitStats, envelope);
        total.requests += stats.requests;
        total.errors += stats.errors;
        net::writeAll(conn, out.str());
        ::close(conn);
    }

    ::close(listenFd);
    ::unlink(path.c_str());
    service.drain();
    flushStats(service, total);
    return 0;
}

/** Report the bound port atomically (write tmp, rename into place). */
void
writePortFile(const std::string &path, uint16_t port)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        if (!out)
            fatal("cannot write port file ", tmp);
        out << port << '\n';
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename ", tmp, " to ", path);
}

/**
 * Cluster-shard mode: serve the framed protocol on a TCP port
 * (0 = ephemeral, reported via --port-file for the spawning router).
 */
int
serveTcp(serve::Service &service, int port,
         const std::string &portFile, const serve::Envelope envelope,
         const serve::ServiceConfig &config)
{
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);
    std::string error;
    uint16_t boundPort = 0;
    const int listenFd = net::listenTcp(
        "127.0.0.1", static_cast<uint16_t>(port), &boundPort, &error);
    if (listenFd < 0)
        fatal(error);
    if (!portFile.empty())
        writePortFile(portFile, boundPort);
    inform("listening on 127.0.0.1:", boundPort,
           " (framed cluster protocol; SIGINT/SIGTERM to exit)");

    cluster::WorkerOptions options;
    options.defaultsFp =
        serve::defaultsFingerprint(config.defaults, config.hw);
    options.defaultEnvelope = envelope;
    const cluster::WorkerStats stats =
        cluster::serveFramed(service, listenFd, options, &g_stop);

    ::close(listenFd);
    service.drain();
    serve::Service::StreamStats total;
    total.requests = stats.requests;
    total.errors = stats.errors;
    flushStats(service, total);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags("gopim_serve",
                "serve GoPIM simulation requests as JSONL "
                "(stdin/stdout, a Unix socket, or framed TCP)");
    flags.addString("socket", "",
                    "serve on this Unix-domain socket instead of "
                    "stdin/stdout");
    flags.addInt("tcp", -1,
                 "serve the framed cluster protocol on this TCP "
                 "port (0 = ephemeral, -1 = disabled)");
    flags.setIntRange("tcp", -1, 65535);
    flags.addString("port-file", "",
                    "report the bound TCP port to this file "
                    "(atomic write; for the spawning router)");
    flags.addString("envelope", "full",
                    "response envelope: full (cache counters "
                    "included) or stable (pure function of the "
                    "request; what the cluster compares)");
    flags.addInt("cache-capacity", 256,
                 "resident entries in the content-addressed result "
                 "cache and in each plan memo (0 disables all "
                 "three)");
    flags.setIntRange("cache-capacity", 0, 1 << 24);
    flags.addInt("max-queue", 0,
                 "backpressure bound: max in-flight simulations "
                 "(0 = twice the worker count)");
    flags.setIntRange("max-queue", 0, 1 << 20);
    flags.addBool("stats", false,
                  "append a {\"type\":\"stats\"} JSONL summary line "
                  "per stream");
    core::addSimFlags(flags);
    if (!flags.parse(argc, argv))
        return 0;

    serve::Envelope envelope = serve::Envelope::Full;
    if (const std::string name = flags.getString("envelope");
        name == "stable")
        envelope = serve::Envelope::Stable;
    else if (name != "full")
        fatal("unknown --envelope '", name,
              "' (expected full or stable)");

    serve::ServiceConfig config;
    config.jobs = core::jobsFromFlags(flags);
    config.cacheCapacity =
        static_cast<size_t>(flags.getInt("cache-capacity"));
    config.maxQueue = static_cast<size_t>(flags.getInt("max-queue"));
    config.defaults = serve::requestDefaults(flags);
    const sim::SimContext &defaultCtx = config.defaults.sim;
    // Per-request latency/queue/cache metrics share the registry the
    // engines record into, so one --metrics-out file covers both.
    config.metrics = defaultCtx.metrics;

    const std::string socketPath = flags.getString("socket");
    const int tcpPort = static_cast<int>(flags.getInt("tcp"));
    if (!socketPath.empty() && tcpPort >= 0)
        fatal("--socket and --tcp are mutually exclusive");

    serve::Service service(config);

    int rc = 0;
    if (tcpPort >= 0) {
        rc = serveTcp(service, tcpPort, flags.getString("port-file"),
                      envelope, config);
    } else if (!socketPath.empty()) {
        rc = serveSocket(service, socketPath, flags.getBool("stats"),
                         envelope);
    } else {
        const auto stats = service.processStream(
            std::cin, std::cout, flags.getBool("stats"), envelope);
        service.drain();
        flushStats(service, stats);
    }
    core::writeTraceIfRequested(flags, defaultCtx);
    core::writeMetricsIfRequested(flags, defaultCtx);
    core::writeIsaTraceIfRequested(flags, defaultCtx);
    return rc;
}
