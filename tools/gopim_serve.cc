/**
 * @file
 * gopim_serve: long-lived batch simulation service. Reads JSONL
 * requests ({"dataset": ..., "system": ..., "engine": ..., knobs})
 * from stdin — or accepts connections on a Unix-domain socket with
 * --socket, or serves the framed cluster transport with --tcp —
 * dispatches them onto a worker pool with bounded-queue
 * backpressure, answers repeated requests from a bounded LRU result
 * memo keyed by content address, and writes one deterministic JSONL
 * response per request in input order.
 *
 * The server's own --engine/--seed/--jobs/... flags (the uniform
 * set from core::addSimFlags) provide the defaults a request
 * inherits for any field it omits. Shutdown is graceful: EOF (or
 * SIGINT/SIGTERM in socket/TCP mode) stops intake and in-flight
 * simulations drain; --stats appends a stream's counts.
 *
 * As a cluster shard (see src/cluster): --tcp=0 binds an ephemeral
 * port, --port-file reports it to the spawning router, and the
 * framed protocol negotiates the stable response envelope so shard
 * responses stay byte-comparable to a single-process run.
 */

#include <iostream>
#include <sstream>

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
void
serveSocket(serve::Service &service, const std::string &path,
            bool emitStats, serve::Envelope envelope)
{
    std::string error;
    const int listenFd = net::listenUnix(path, &error);
    if (listenFd < 0)
        fatal(error);
    net::acceptUntil(listenFd, [&](int conn) {
        std::istringstream in(readAll(conn));
        std::ostringstream out;
        service.processStream(in, out, emitStats, envelope);
        net::writeAll(conn, out.str());
    });

    ::close(listenFd);
    ::unlink(path.c_str());
}

/**
 * Cluster-shard mode: serve the framed protocol on a TCP port
 * (0 = ephemeral, reported via --port-file for the spawning router).
 */
void
serveTcp(serve::Service &service, int port,
         const std::string &portFile, const serve::Envelope envelope,
         const serve::ServiceConfig &config)
{
    std::string error;
    uint16_t boundPort = 0;
    const int listenFd = net::listenTcp(
        "127.0.0.1", static_cast<uint16_t>(port), &boundPort, &error);
    if (listenFd < 0 || !net::writePortFile(portFile, boundPort, &error))
        fatal(error);

    cluster::WorkerOptions options;
    options.defaultsFp =
        serve::defaultsFingerprint(config.defaults, config.hw);
    options.defaultEnvelope = envelope;
    net::acceptUntil(listenFd, [&](int conn) {
        cluster::pumpFramedConnection(service, conn, options);
    });

    ::close(listenFd);
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
                    "response envelope: full (memo counters "
                    "included) or stable (pure function of the "
                    "request; what the cluster compares)");
    flags.addInt("cache-capacity", 256,
                 "resident entries in the content-addressed result "
                 "memo; the plan memo holds twice as many plans (0 "
                 "disables both)");
    flags.setIntRange("cache-capacity", 0, 1 << 24);
    flags.addInt("max-queue", 0,
                 "backpressure bound: max in-flight simulations "
                 "(0 = twice the worker count)");
    flags.setIntRange("max-queue", 0, 1 << 20);
    flags.addBool("stats", false,
                  "append a {\"type\":\"stats\"} JSONL summary line "
                  "per stream (ignored under --tcp, whose peers ask "
                  "with {\"type\":\"stats\"} lines)");
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

    if (tcpPort >= 0)
        serveTcp(service, tcpPort, flags.getString("port-file"), envelope,
                 config);
    else if (!socketPath.empty())
        serveSocket(service, socketPath, flags.getBool("stats"), envelope);
    else
        service.processStream(std::cin, std::cout, flags.getBool("stats"),
                              envelope);
    service.drain();
    core::writeTraceIfRequested(flags, defaultCtx);
    core::writeMetricsIfRequested(flags, defaultCtx);
    core::writeIsaTraceIfRequested(flags, defaultCtx);
    return 0;
}
