/**
 * @file
 * gopim_router: sharded serving front end (src/cluster). Rendezvous-
 * hashes every request's content-addressed cache key across N
 * gopim_serve worker shards, streams responses back in input order,
 * sheds load when a shard saturates, and survives worker crashes by
 * journaling in-flight requests and re-issuing them to a respawned
 * worker — the response stream stays byte-identical to a single
 * `gopim_serve --envelope=stable` run.
 *
 * Two ways to get shards:
 *   --workers=N --worker-cmd="./gopim_serve --jobs=2"   spawn N
 *       workers locally (the router appends --tcp=0 --port-file=...
 *       and respawns crashed ones with the same command);
 *   --connect=host:port[,host:port...]                  attach to
 *       pre-started `gopim_serve --tcp=PORT` processes.
 *
 * The router's own --engine/--seed/fault flags must match the
 * workers' — the hello fingerprint check refuses mismatched shards
 * rather than serving silently divergent bytes.
 *
 * The chaos flags (--chaos-kill-every/--chaos-kill-count) SIGKILL
 * seeded-random spawned workers under load; CI uses them to assert
 * restart-path bit-identity end to end.
 */

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/proc.hh"
#include "cluster/router.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "common/net.hh"
#include "core/options.hh"
#include "serve/request.hh"

namespace {

using namespace gopim;

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::string part;
    std::istringstream in(text);
    while (std::getline(in, part, sep))
        if (!part.empty())
            parts.push_back(part);
    return parts;
}

/** The flags' shards; `*portDir` is set when they are spawned. */
std::vector<cluster::ShardSpec>
shardSpecs(const Flags &flags, std::string *portDir)
{
    const std::string connect = flags.getString("connect");
    const int64_t workers = flags.getInt("workers");
    if (!connect.empty() && workers > 0)
        fatal("--connect and --workers are mutually exclusive");

    std::vector<cluster::ShardSpec> specs;
    if (!connect.empty()) {
        for (const std::string &endpoint : splitList(connect, ',')) {
            cluster::ShardSpec spec;
            std::string error;
            if (!cluster::parseEndpoint(endpoint, &spec, &error))
                fatal(error);
            specs.push_back(std::move(spec));
        }
        return specs;
    }

    if (workers <= 0)
        fatal("need shards: pass --workers=N --worker-cmd=... or "
              "--connect=host:port[,...]");
    const std::vector<std::string> command =
        cluster::splitCommand(flags.getString("worker-cmd"));
    if (command.empty())
        fatal("--workers needs --worker-cmd (e.g. "
              "--worker-cmd=\"./build/tools/gopim_serve --jobs=2\")");

    // Spawned workers report their ephemeral ports through files in
    // a private scratch directory.
    char dirTemplate[] = "/tmp/gopim_router.XXXXXX";
    if (::mkdtemp(dirTemplate) == nullptr)
        fatal("cannot create port-file directory");
    *portDir = dirTemplate;
    for (int64_t i = 0; i < workers; ++i) {
        cluster::ShardSpec spec;
        spec.name = "shard" + std::to_string(i);
        spec.command = command;
        spec.portFile = *portDir + "/" + spec.name + ".port";
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** Serve clients until EOF or a signal; "" or a listen error. */
std::string
serveClients(cluster::Router &router, const Flags &flags)
{
    const int tcpPort = static_cast<int>(flags.getInt("tcp"));
    if (tcpPort < 0) {
        router.processStream(std::cin, std::cout);
        if (flags.getBool("stats"))
            std::cout << router.statsJson().dump() << '\n';
        return "";
    }
    std::string error;
    uint16_t boundPort = 0;
    const net::Fd listener(net::listenTcp(
        "127.0.0.1", static_cast<uint16_t>(tcpPort), &boundPort, &error));
    if (!listener.valid() ||
        !net::writePortFile(flags.getString("port-file"), boundPort, &error))
        return error;
    net::acceptUntil(listener.get(),
                     [&](int conn) { router.processFramed(conn); });
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags("gopim_router",
                "route JSONL simulation requests across gopim_serve "
                "shards (consistent hashing, in-order responses, "
                "crash recovery)");
    flags.addString("connect", "",
                    "comma-separated host:port list of pre-started "
                    "workers");
    flags.addInt("workers", 0,
                 "spawn this many local worker processes");
    flags.setIntRange("workers", 0, 256);
    flags.addString("worker-cmd", "",
                    "command to spawn each worker (--tcp=0 and "
                    "--port-file are appended)");
    flags.addInt("max-inflight", 64,
                 "per-shard in-flight bound; the dispatcher blocks "
                 "at this depth (backpressure)");
    flags.setIntRange("max-inflight", 1, 1 << 16);
    flags.addInt("shed-above", 0,
                 "shed (reject with code \"overloaded\") at this "
                 "per-shard depth; 0 = never shed");
    flags.setIntRange("shed-above", 0, 1 << 16);
    flags.addInt("restart-attempts", 3,
                 "respawn/reconnect rounds before a dead shard's "
                 "requests are failed");
    flags.setIntRange("restart-attempts", 1, 100);
    flags.addInt("tcp", -1,
                 "serve clients over framed TCP on this port "
                 "(0 = ephemeral; -1 = stdin/stdout)");
    flags.setIntRange("tcp", -1, 65535);
    flags.addString("port-file", "",
                    "report the client-facing TCP port to this file");
    flags.addBool("stats", false,
                  "append a router {\"type\":\"stats\"} line after "
                  "the stream (ignored under --tcp, whose clients ask "
                  "with {\"type\":\"stats\"} lines)");
    flags.addInt("chaos-kill-every", 0,
                 "chaos: SIGKILL a random spawned worker every N "
                 "emitted responses (0 = off)");
    flags.setIntRange("chaos-kill-every", 0, 1 << 24);
    flags.addInt("chaos-kill-count", 0,
                 "chaos: total kills to inject");
    flags.setIntRange("chaos-kill-count", 0, 1 << 16);
    flags.addInt("chaos-seed", 1, "chaos: victim-selection seed");
    core::addSimFlags(flags);
    if (!flags.parse(argc, argv))
        return 0;

    cluster::RouterConfig config;
    std::string portDir;
    config.shards = shardSpecs(flags, &portDir);
    config.defaults = serve::requestDefaults(flags);
    // A copy: config moves into the router below.
    const sim::SimContext defaultCtx = config.defaults.sim;
    config.admission.maxInflightPerShard =
        static_cast<size_t>(flags.getInt("max-inflight"));
    config.admission.shedAbove =
        static_cast<size_t>(flags.getInt("shed-above"));
    config.restartAttempts =
        static_cast<uint32_t>(flags.getInt("restart-attempts"));
    config.chaosKillEvery =
        static_cast<uint32_t>(flags.getInt("chaos-kill-every"));
    config.chaosKillCount =
        static_cast<uint32_t>(flags.getInt("chaos-kill-count"));
    config.chaosSeed =
        static_cast<uint64_t>(flags.getInt("chaos-seed"));
    // Admission gauges/counters and engine metrics share one registry
    // so a single --metrics-out file tells the whole story.
    config.metrics = defaultCtx.metrics;

    std::string problem;
    {
        cluster::Router router(std::move(config));
        problem = router.start();
        problem = problem.empty() ? serveClients(router, flags)
                                  : "cluster start failed: " + problem;
    }
    // The router has reaped every worker, so no port file is in use.
    if (!portDir.empty())
        std::filesystem::remove_all(portDir);
    if (!problem.empty())
        fatal(problem);
    core::writeMetricsIfRequested(flags, defaultCtx);
    return 0;
}
