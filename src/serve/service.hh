/**
 * @file
 * Long-lived batch simulation service. Accepts JSONL requests (one
 * object per line), dispatches fresh simulations onto a
 * common::ThreadPool with bounded-queue backpressure, answers
 * repeated requests from one bounded result memo, and emits JSONL
 * responses in request order. A {"type":"stats"} line is answered in
 * place with a live stats snapshot (same shape as the --stats
 * trailer) without touching the simulation path. A miss runs
 * through serve::runRequest, the same runner gopim_sim uses, with the
 * plans this service's plan memo entered for it.
 *
 * Every stream runs through serve::pumpSession (serve/pump.hh) over
 * submit(), ready() and finish(): processStream (stdin, each --socket
 * connection) and cluster::pumpFramedConnection. The pump counts
 * nothing; a stream's counts have one store, stream_.
 *
 * Determinism contract: request parsing and every memo operation
 * (lookup, insert, LRU touch, eviction, in the result memo and the
 * plan memo) happen serially in input order on the dispatcher
 * thread. Each memo stores a future as soon as the request that
 * needs it is dispatched, so a repeat of a finished computation and
 * a repeat of a running one are the same hit. Hits, misses,
 * evictions and every exported memo counter are therefore a pure
 * function of the input stream, responses are emitted strictly in
 * input order, and the response bytes (either envelope, stats lines
 * included) are identical for any worker count. A hit replays the
 * exact bytes a fresh simulation would have produced.
 *
 * Plan waits cannot deadlock. A plan-memo miss makes its request the
 * plan's owner, and a later request that needs the plan waits on it
 * inside its own task. Invariant: an owner's task is submitted to
 * the pool before any of its waiters' tasks (submit() is serialized
 * from memo entry to pool submission), ThreadPool starts tasks in
 * FIFO order, and runRequest builds every plan a task owns before it
 * waits on anything. So every owner is running or done before a
 * waiter blocks, and it fulfils its promise without waiting.
 */

#ifndef GOPIM_SERVE_SERVICE_HH
#define GOPIM_SERVE_SERVICE_HH

#include <condition_variable>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

#include "common/memo_table.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "reram/config.hh"
#include "serve/request.hh"

namespace gopim::serve {

/**
 * Response envelope mode. Full is the historical single-process
 * shape: result lines carry the memo metadata ("cached", running
 * "hits"/"misses" counters, the trace path), a function of this
 * process's whole input history. Stable strips those — a Stable
 * result line is a pure function of the request identity (id, cache
 * key, result bytes), which is what lets a sharded cluster (whose
 * per-shard memos see different subsets and whose workers may
 * restart cold) stay byte-identical to a single-process run. The
 * cluster transport always negotiates Stable.
 */
enum class Envelope
{
    Full,
    Stable,
};

/** Everything a Service needs at construction. */
struct ServiceConfig
{
    /** Simulation worker threads (0 = all hardware threads). */
    size_t jobs = 1;
    /**
     * Resident entries in the result memo. The plan memo holds twice
     * as many allocated plans: a request plans its system and its
     * baseline. 0 disables both: every request is then a miss,
     * repeats are not coalesced, and every run plans locally.
     */
    size_t cacheCapacity = 256;
    /**
     * Backpressure bound: max simulations submitted but not yet
     * finished. The dispatcher blocks (stops reading input) when the
     * queue is full. 0 = twice the worker count.
     */
    size_t maxQueue = 0;
    reram::AcceleratorConfig hw =
        reram::AcceleratorConfig::paperDefault();
    /** Per-request defaults (typically serve::requestDefaults). */
    Request defaults;
    /**
     * Optional metrics registry (latency/queue-wait histograms,
     * hit/miss counters, in-flight depth). Never alters response
     * bytes; null disables all recording.
     */
    std::shared_ptr<obs::MetricsRegistry> metrics;
};

/** The batch simulation service. */
class Service
{
  private:
    /** One dispatched request: everything emission needs. */
    struct Output
    {
        std::string id;
        RequestError error;         ///< !ok() = error response
        std::string prefix;         ///< envelope up to "result":
        bool raw = false;           ///< `value` is the whole line
        std::string value;          ///< the stats line when `raw`
        std::shared_future<std::string> pending; ///< result bytes
        double dispatchedUs = 0.0;  ///< set only when metrics attached
    };

  public:
    explicit Service(ServiceConfig config);

    /** Drains in-flight simulations, then joins the workers. */
    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * An accepted request whose response has not been rendered yet.
     * Returned by submit(); hand it back to ready()/finish(). Move-
     * only in spirit (cheap to move, holds a shared future).
     */
    class Pending
    {
      public:
        Pending() = default;

      private:
        friend class Service;
        Output output_;
    };

    /**
     * Parse/validate/route one JSONL line and start its simulation
     * (or resolve it against the result memo). Calls are serialized:
     * the hit/miss decisions happen in call order, so callers that
     * submit in input order get deterministic bytes for any worker
     * count. May block on the bounded-queue backpressure.
     */
    Pending submit(const std::string &line,
                   Envelope envelope = Envelope::Full);

    /** True once finish() would not block. */
    bool ready(const Pending &pending) const;

    /**
     * Render the response line (no trailing newline), blocking until
     * the simulation completes if needed. Also records the request's
     * metrics; call exactly once.
     */
    std::string finish(Pending &pending);

    /**
     * Handle one JSONL request line synchronously; returns the
     * response line (no trailing newline).
     */
    std::string handleLine(const std::string &line,
                           Envelope envelope = Envelope::Full);

    /**
     * A stream's counts. Requests and rejected lines count at dispatch,
     * so a {"type":"stats"} answer counts every line before it at any
     * --jobs; simulation_failed, known only at render, counts when
     * emitted.
     */
    struct StreamStats
    {
        uint64_t requests = 0;
        uint64_t errors = 0;
    };

    /**
     * Read JSONL requests from `in` until EOF (blank lines skipped),
     * write one JSONL response per request to `out` in input order
     * through serve::pumpStream, counting from zero. When `emitStats`
     * is set, a final {"type":"stats",...} line summarizes the stream.
     * `out` is flushed whenever the next response is not ready.
     */
    StreamStats processStream(std::istream &in, std::ostream &out,
                              bool emitStats = false,
                              Envelope envelope = Envelope::Full);

    /** Block until every submitted simulation has finished. */
    void drain();

    /** Result-memo hits / misses (dispatch-order deterministic). */
    uint64_t hits() const;
    uint64_t misses() const;

    struct CacheStats
    {
        size_t entries = 0;   ///< finished and running results held
        size_t capacity = 0;
        uint64_t evictions = 0;
    };
    CacheStats cacheStats() const;

    /** The stats line emitted by --stats, as a JSON object. */
    json::Value statsJson(const StreamStats &stream) const;

  private:
    /** Parse/validate/route one line; serial, in input order. */
    Output dispatch(const std::string &line, Envelope envelope);
    /** Render an Output to its final response line (may block). */
    std::string render(Output &output);

    /** runRequest on the entered plans, write trace_out, serialize. */
    std::string simulate(const ResolvedRequest &resolved,
                         const RequestPlans &plans) const;

    void acquireQueueSlot();
    void releaseQueueSlot();

    /** Record request latency/outcome (no-op without a registry). */
    void observeEmitted(const Output &output);

    /** Metric handles, resolved once (all null without a registry). */
    struct Instruments
    {
        obs::Counter *requests = nullptr;
        obs::Counter *errors = nullptr;
        obs::Counter *hits = nullptr;
        obs::Counter *misses = nullptr;
        obs::Gauge *inflightMax = nullptr;
        obs::Histogram *queueWaitUs = nullptr;
        obs::Histogram *latencyUs = nullptr;
        /** Plan-memo counters (serve.plan_memo.*), set at dispatch. */
        obs::Gauge *memoHits = nullptr;
        obs::Gauge *memoMisses = nullptr;
        obs::Gauge *memoEvictions = nullptr;
        obs::Gauge *memoEntries = nullptr;
    };

    ServiceConfig config_;
    size_t maxQueue_;
    /**
     * Result bytes by cache key, one future per key from dispatch on
     * (null when cacheCapacity is 0). Looked up and filled only
     * under dispatchMutex_, so its LRU order follows the input. A
     * simulation can only fail on a std exception (fatal() exits),
     * and its failed future stays memoized like any other result.
     */
    std::unique_ptr<MemoTable<std::shared_future<std::string>>> results_;
    /**
     * Allocated plans by plan key (serve::planKeys), one future per
     * key from the dispatch of the result-memo miss that first needs
     * it, for every family; null when cacheCapacity is 0. Holds at
     * most 2 x cacheCapacity plans. Entered only under
     * dispatchMutex_, like results_; a failed build's future stays
     * memoized the same way.
     */
    std::unique_ptr<MemoTable<std::shared_future<PlanHandle>>> plans_;
    Instruments instruments_;

    /**
     * Held by submit() from parsing through pool submission, so tasks
     * reach the pool in memo-entry order (the plan-wait invariant).
     */
    std::mutex submitMutex_;
    /** Guards the dispatch counters and both memos' entry. */
    mutable std::mutex dispatchMutex_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    /** Per-stream request/error counts, the one store of both. */
    StreamStats stream_;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    /** Simulations submitted but not finished (serve.inflight.max). */
    size_t pendingJobs_ = 0;

    // Declared last on purpose: destruction runs in reverse order,
    // so ~ThreadPool joins every worker before the memos, the
    // dispatch state, and the backpressure cv/mutex above are torn
    // down — workers may touch all of them right up to task exit
    // (TSan pinned the ~Service vs releaseQueueSlot race this
    // ordering removes).
    ThreadPool pool_;
};

} // namespace gopim::serve

#endif // GOPIM_SERVE_SERVICE_HH
