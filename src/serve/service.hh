/**
 * @file
 * Long-lived batch simulation service. Accepts JSONL requests (one
 * object per line), dispatches fresh simulations onto a
 * common::ThreadPool with bounded-queue backpressure, serves
 * repeated requests from a content-addressed LRU result cache, and
 * emits JSONL responses in request order. A {"type":"stats"} line
 * is answered in place with a live stats snapshot (same shape as
 * the --stats trailer) without touching the simulation path. A miss
 * runs through serve::runRequest, the same runner gopim_sim uses,
 * with this service's plan memos attached.
 *
 * Determinism contract: request parsing and the hit/miss decision
 * happen serially in input order on the dispatcher thread (repeats
 * of an in-flight request coalesce onto its future), and responses
 * are emitted strictly in input order. The response bytes for a
 * given input stream are therefore identical for any worker count,
 * and a cache hit replays the exact bytes a fresh simulation would
 * have produced.
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
#include <unordered_map>

#include "common/thread_pool.hh"
#include "core/harness.hh"
#include "obs/metrics.hh"
#include "reram/config.hh"
#include "serve/cache.hh"
#include "serve/request.hh"
#include "workload/runner.hh"

namespace gopim::serve {

/**
 * Response envelope mode. Full is the historical single-process
 * shape: result lines carry live cache metadata ("cached", running
 * "hits"/"misses" counters, the trace path). Stable strips those —
 * a Stable result line is a pure function of the request identity
 * (id, cache key, result bytes), which is what lets a sharded
 * cluster (whose per-shard caches see different subsets and whose
 * workers may restart with cold caches) stay byte-identical to a
 * single-process run. The cluster transport always negotiates
 * Stable.
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
     * Resident entries in the result cache and in each plan memo
     * (gcn-train and family plans). 0 disables all three.
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
        std::string key;            ///< cache key ("" for errors)
        RequestError error;         ///< !ok() = error response
        std::string prefix;         ///< envelope up to "result":
        bool immediate = false;     ///< result already in `value`
        bool raw = false;           ///< `value` is the whole line
        std::string value;          ///< cached result bytes
        std::shared_future<std::string> pending; ///< fresh result
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
     * (or resolve it against the cache). Serial per caller thread:
     * the hit/miss decision happens in call order, so callers that
     * submit in input order get deterministic bytes for any worker
     * count. May block on the bounded-queue backpressure.
     */
    Pending submit(const std::string &line,
                   Envelope envelope = Envelope::Full);

    /** True once finish() would not block. */
    bool ready(const Pending &pending) const;

    /**
     * Render the response line (no trailing newline), blocking until
     * the simulation completes if needed. Also retires the request's
     * coalescing entry and records its metrics; call exactly once.
     */
    std::string finish(Pending &pending);

    /**
     * Handle one JSONL request line synchronously; returns the
     * response line (no trailing newline).
     */
    std::string handleLine(const std::string &line,
                           Envelope envelope = Envelope::Full);

    struct StreamStats
    {
        uint64_t requests = 0;
        uint64_t errors = 0;
    };

    /**
     * Read JSONL requests from `in` until EOF, write one JSONL
     * response per request to `out` in input order. When `emitStats`
     * is set, a final {"type":"stats",...} line summarizes the
     * stream. Completed responses are flushed as soon as order
     * allows, so output streams while later requests still compute.
     */
    StreamStats processStream(std::istream &in, std::ostream &out,
                              bool emitStats = false,
                              Envelope envelope = Envelope::Full);

    /** Block until every submitted simulation has finished. */
    void drain();

    /** Cache-hit / miss counters (dispatch-order deterministic). */
    uint64_t hits() const;
    uint64_t misses() const;
    ResultCache::Stats cacheStats() const { return cache_.stats(); }

    /**
     * Coalescing-map entries currently held. Completed entries are
     * retired as their responses are emitted (plus a sweep on every
     * miss), so this stays bounded by the in-flight window rather
     * than growing with stream length.
     */
    size_t inflightSize() const;

    /** The stats line emitted by --stats, as a JSON object. */
    json::Value statsJson(const StreamStats &stream) const;

  private:
    /** Parse/validate/route one line; serial, in input order. */
    Output dispatch(const std::string &line, Envelope envelope);
    /** Render an Output to its final response line (may block). */
    std::string render(Output &output);
    /** Drop `key`'s coalescing entry once its future is ready. */
    void retireInflight(const std::string &key);

    /** runRequest with the plan memos, write trace_out, serialize. */
    std::string simulate(const ResolvedRequest &resolved) const;

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
        /** Plan-memo totals over both memos (serve.plan_memo.*). */
        obs::Gauge *memoHits = nullptr;
        obs::Gauge *memoMisses = nullptr;
        obs::Gauge *memoEvictions = nullptr;
        obs::Gauge *memoEntries = nullptr;
    };

    ServiceConfig config_;
    size_t maxQueue_;
    ResultCache cache_;
    /**
     * Plans a result-cache miss reuses (null when cacheCapacity is
     * 0): gcn-train core::StagePlans keyed like the harness memo,
     * and inference-family core::StageCosts (compiled, not yet
     * allocated) keyed by workload::familyPlanKey.
     * Both hold at most cacheCapacity entries.
     */
    std::unique_ptr<core::PlanMemo> trainPlans_;
    std::unique_ptr<workload::PlanMemo> familyPlans_;
    Instruments instruments_;

    /** Serializes dispatch: counters + coalescing map. */
    mutable std::mutex dispatchMutex_;
    /** In-flight result futures for request coalescing. */
    // gopim-lint: allow(determinism-unordered) keyed lookups and a
    // readiness sweep only; iteration order never reaches response
    // bytes (responses are emitted in request order from the deque).
    std::unordered_map<std::string, std::shared_future<std::string>>
        inflight_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    /** Per-stream request/error counts ({"type":"stats"} queries). */
    StreamStats stream_;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    size_t pendingJobs_ = 0;

    // Declared last on purpose: destruction runs in reverse order,
    // so ~ThreadPool joins every worker before the cache, the
    // dispatch state, and the backpressure cv/mutex above are torn
    // down — workers may touch all of them right up to task exit
    // (TSan pinned the ~Service vs releaseQueueSlot race this
    // ordering removes).
    ThreadPool pool_;
};

} // namespace gopim::serve

#endif // GOPIM_SERVE_SERVICE_HH
