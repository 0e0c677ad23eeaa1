/**
 * @file
 * ShardRouter: scales the serving layer across worker processes
 * while preserving the single-process byte contract.
 *
 * Determinism argument, in three parts:
 *  1. Placement — every request is decoded by serve::decodeLine,
 *     the workers' own decoder, and rendezvous-hashed by its
 *     content-addressed cache key (shards.hh), so repeats of a key
 *     always reach the same shard and each shard's LRU cache behaves
 *     exactly like a single-process cache over its key subset.
 *  2. Envelope — workers speak the Stable envelope (service.hh), so
 *     response bytes are a pure function of (id, key, result) and
 *     never of a shard's private hit/miss history.
 *  3. Ordering — responses come back in request order per shard
 *     connection, and the router re-emits them in client input
 *     order, so the concatenated stream matches a single-process
 *     run line for line.
 *
 * Worker death is survived, not hidden: the router journals every
 * in-flight request per shard, detects death (read/write failure),
 * respawns or reconnects, re-issues the journal in order, and keeps
 * going — the client stream is byte-identical to an undisturbed run
 * because re-simulation of a deterministic request reproduces the
 * same result bytes. A seeded chaos mode (kill a worker every N
 * responses) makes that claim testable end to end.
 *
 * Both client transports run through serve::pumpSession, the pump
 * serve::Service uses. Requests, errors, sheds, restarts, re-issues
 * and chaos kills are counted only in metrics() (cluster.*.count);
 * statsJson() reads them back. Requests and the router's own error
 * lines count at dispatch, a shard's error line when it completes.
 */

#ifndef GOPIM_CLUSTER_ROUTER_HH
#define GOPIM_CLUSTER_ROUTER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/admission.hh"
#include "cluster/shards.hh"
#include "common/net.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "reram/config.hh"
#include "serve/request.hh"

namespace gopim::cluster {

/** Everything a Router needs at construction. */
struct RouterConfig
{
    std::vector<ShardSpec> shards;
    /**
     * Per-request defaults — MUST match the workers' (the hello
     * fingerprint check enforces it; see wire.hh).
     */
    serve::Request defaults;
    reram::AcceleratorConfig hw =
        reram::AcceleratorConfig::paperDefault();
    AdmissionConfig admission;

    /** Connect retries per (re)connect round and their spacing. */
    uint32_t connectAttempts = 50;
    uint32_t connectDelayMs = 100;
    /** Full respawn+reconnect rounds before a shard is given up. */
    uint32_t restartAttempts = 3;

    /**
     * Chaos harness (spawned shards only): after every
     * `chaosKillEvery` responses emitted, SIGKILL a seeded-random
     * worker, up to `chaosKillCount` times. 0 disables.
     */
    uint32_t chaosKillEvery = 0;
    uint32_t chaosKillCount = 0;
    uint64_t chaosSeed = 1;

    /**
     * Optional export registry. Admission control always records
     * into a registry — this one when given, a private one
     * otherwise — because its decisions read the instruments back.
     */
    std::shared_ptr<obs::MetricsRegistry> metrics;
};

/** The shard router. */
class Router
{
  public:
    explicit Router(RouterConfig config);

    /** Disconnects, SIGTERMs and reaps every spawned worker. */
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /**
     * Spawn/connect every shard and exchange hellos. Returns "" on
     * success, else a one-line reason (strict: all shards must come
     * up before traffic flows).
     */
    std::string start();

    /**
     * Route JSONL requests from `in` until EOF (blank lines skipped);
     * one response line per request to `out`, in input order, each
     * written as soon as order allows.
     */
    void processStream(std::istream &in, std::ostream &out);

    /**
     * Client-facing framed transport: hello exchange on `clientFd`,
     * then one request per frame in, one response per frame out (in
     * order, blank frames included). Returns when the client closes.
     */
    void processFramed(int clientFd);

    /** Rendezvous placement of a content-addressed key. */
    size_t shardFor(const std::string &key) const;

    /** The registry admission control and the counts record into. */
    obs::MetricsRegistry &metrics() { return *metrics_; }

    /** Router stats snapshot over all sessions ({"type":"stats"}). */
    json::Value statsJson() const;

  private:
    /** One client request, in input order. */
    struct Entry
    {
        bool done = false;
        bool routed = false;     ///< reached a shard (latency counts)
        std::string response;    ///< final line, no newline
        std::string id;
        double dispatchedUs = 0.0;
    };
    using EntryPtr = std::shared_ptr<Entry>;

    /** An in-flight request journaled against a shard. */
    struct Journaled
    {
        std::string line; ///< raw client line, re-issued verbatim
        EntryPtr entry;
    };

    struct Shard
    {
        size_t index = 0; ///< position in shards_ / admission gauges
        ShardSpec spec;
        net::Fd fd;
        int64_t pid = -1;
        bool dead = true;  ///< no live connection
        bool gone = false; ///< permanently failed
        std::deque<Journaled> journal;
        uint64_t restarts = 0;
        // Last member on purpose: the reader thread touches journal
        // and dead, which must outlive it under reverse-order
        // destruction (the concurrency-join-order lint rule).
        std::thread reader;
    };

    /** One connect/spawn+hello round; "" on success. */
    std::string connectShard(Shard &shard);
    /** Reader thread: match response frames to journal fronts. */
    void readerLoop(Shard &shard);
    /** Join the reader and drop the connection (does not revive). */
    void disconnectShard(Shard &shard);
    /**
     * Respawn/reconnect a dead shard and re-issue its journal; marks
     * it gone after restartAttempts failed rounds. The caller holds
     * ownerMutex_.
     */
    void reviveShard(Shard &shard);
    /** Mark a shard gone; fail its journal with shard_unavailable. */
    void failJournal(Shard &shard);
    /** A dead, not gone shard that owes journal entries (mutex_ held). */
    Shard *shardOwingRevival();
    /** Revive every such shard. */
    void recoverDeadShards();

    // The pump's submit, ready and finish. dispatchLine never waits on
    // results; finishEntry waits for one, reviving dead shards.
    EntryPtr dispatchLine(const std::string &line);
    EntryPtr immediateEntry(std::string response, bool isError);
    bool entryDone(const EntryPtr &entry) const;
    std::string finishEntry(EntryPtr &entry);

    RouterConfig config_;
    std::shared_ptr<obs::MetricsRegistry> metrics_;
    AdmissionController admission_;
    /** Resolved once: bumped on every request / error line. */
    obs::Counter *requestCount_;
    obs::Counter *errorCount_;
    std::vector<std::string> names_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::string defaultsFp_;
    Rng chaosRng_;          ///< under ownerMutex_
    uint64_t emitted_ = 0;  ///< under ownerMutex_
    bool started_ = false;

    /**
     * Held to change a shard's connection, process or journal tail:
     * by dispatch from routing through the frame write, by revival and
     * by the chaos kill, never by readers. So a journal cannot change
     * while its shard is revived. Taken before mutex_.
     */
    std::mutex ownerMutex_;
    /**
     * One mutex/cv pair guards all cross-thread state (journals,
     * entry done flags, dead/gone flags, restart counts). Reader
     * threads hold it only to match one frame.
     */
    mutable std::mutex mutex_;
    std::condition_variable cv_;
};

} // namespace gopim::cluster

#endif // GOPIM_CLUSTER_ROUTER_HH
