#include "serve/service.hh"

#include <chrono>
#include <exception>
#include <functional>
#include <ostream>
#include <utility>

#include "core/report.hh"
#include "obs/profile.hh"
#include "serve/pump.hh"

namespace gopim::serve {

namespace {

/**
 * The one memo entry rule: the future `memo` holds under `key`. A
 * miss stores the future of a fresh promise and hands that promise
 * to `owner`, whose task then owns the computation; a hit leaves
 * `owner` null. Without a memo every entry is a miss.
 */
template <typename T>
std::shared_future<T>
enterMemo(MemoTable<std::shared_future<T>> *memo, std::string key,
          std::shared_ptr<std::promise<T>> *owner)
{
    const auto start = [owner] {
        *owner = std::make_shared<std::promise<T>>();
        return (*owner)->get_future().share();
    };
    return memo ? *memo->getOrBuild(std::move(key), start) : start();
}

} // namespace

Service::Service(ServiceConfig config)
    : config_(std::move(config)),
      maxQueue_(config_.maxQueue),
      pool_(ThreadPool::resolveJobs(config_.jobs))
{
    if (maxQueue_ == 0)
        maxQueue_ = 2 * pool_.threadCount();
    if (config_.cacheCapacity > 0) {
        results_ = std::make_unique<
            MemoTable<std::shared_future<std::string>>>(
            config_.cacheCapacity);
        plans_ = std::make_unique<
            MemoTable<std::shared_future<PlanHandle>>>(
            2 * config_.cacheCapacity);
    }
    if (obs::MetricsRegistry *m = config_.metrics.get()) {
        Instruments &i = instruments_;
        i.requests = &m->counter("serve.request.count");
        i.errors = &m->counter("serve.request.error.count");
        i.hits = &m->counter("serve.cache.hit.count");
        i.misses = &m->counter("serve.cache.miss.count");
        i.inflightMax = &m->gauge("serve.inflight.max");
        i.queueWaitUs = &m->histogram(
            "serve.queue.wait_us", obs::ProfileSpan::latencyBoundsUs());
        i.latencyUs = &m->histogram(
            "serve.request.latency_us",
            obs::ProfileSpan::latencyBoundsUs());
        i.memoHits = &m->gauge("serve.plan_memo.hits");
        i.memoMisses = &m->gauge("serve.plan_memo.misses");
        i.memoEvictions = &m->gauge("serve.plan_memo.evictions");
        i.memoEntries = &m->gauge("serve.plan_memo.entries");
    }
}

Service::~Service()
{
    drain();
}

void
Service::acquireQueueSlot()
{
    std::unique_lock<std::mutex> lock(queueMutex_);
    queueCv_.wait(lock, [this] { return pendingJobs_ < maxQueue_; });
    ++pendingJobs_;
    if (instruments_.inflightMax)
        instruments_.inflightMax->recordMax(
            static_cast<int64_t>(pendingJobs_));
}

void
Service::releaseQueueSlot()
{
    // Notify while still holding the lock: drain() (called from
    // ~Service) must not be able to observe pendingJobs_ == 0 and
    // proceed to destruction while this broadcast is still touching
    // queueCv_. Notify-after-unlock here was a TSan-reported race
    // against pthread_cond_destroy.
    std::lock_guard<std::mutex> lock(queueMutex_);
    --pendingJobs_;
    queueCv_.notify_all();
}

void
Service::drain()
{
    std::unique_lock<std::mutex> lock(queueMutex_);
    queueCv_.wait(lock, [this] { return pendingJobs_ == 0; });
}

uint64_t
Service::hits() const
{
    std::lock_guard<std::mutex> lock(dispatchMutex_);
    return hits_;
}

uint64_t
Service::misses() const
{
    std::lock_guard<std::mutex> lock(dispatchMutex_);
    return misses_;
}

Service::CacheStats
Service::cacheStats() const
{
    if (!results_)
        return {};
    const auto memo = results_->stats();
    return {memo.entries, results_->capacity(), memo.evictions};
}

std::string
Service::simulate(const ResolvedRequest &resolved,
                  const RequestPlans &plans) const
{
    const RequestRun out = runRequest(resolved, config_.hw, plans);
    json::Value result = core::runResultToJson(out.run);
    if (out.baseline) {
        result.set("baseline", out.baseline->systemName);
        result.set("speedup", out.run.speedupOver(*out.baseline));
        result.set("energy_saving",
                   out.run.energySavingOver(*out.baseline));
    }
    if (out.trace)
        out.trace->writeFile(resolved.request.traceOut);
    return result.dump();
}

Service::Output
Service::dispatch(const std::string &line, Envelope envelope)
{
    Output output;
    const Instruments &metrics = instruments_;
    const bool metricsOn = metrics.requests != nullptr;
    if (metricsOn) {
        output.dispatchedUs = obs::profileNowUs();
        metrics.requests->add();
    }

    DecodedLine decoded = decodeLine(line, config_.defaults, config_.hw);
    output.id = std::move(decoded.id);
    if (decoded.stats || !decoded.error.ok()) {
        // A {"type":"stats"} query is answered in order like any
        // response, with a live snapshot that counts the query itself.
        StreamStats current;
        {
            std::lock_guard<std::mutex> lock(dispatchMutex_);
            ++stream_.requests;
            if (!decoded.error.ok())
                ++stream_.errors;
            current = stream_;
        }
        if (decoded.stats) {
            output.raw = true;
            output.value = statsJson(current).dump();
        } else {
            output.error = std::move(decoded.error);
        }
        return output;
    }

    // The hit/miss decision is serial in input order, and a miss
    // memoizes its future before the simulation starts: a repeat
    // takes that future whether the run has finished or not, so the
    // decision, the LRU order and every eviction — and therefore the
    // response bytes — never depend on worker timing. The plan memo
    // is entered the same way, only on a result miss. Only the
    // decisions happen under dispatchMutex_; the (potentially long)
    // backpressure wait below does not, so hits()/misses()/
    // statsJson() stay responsive while the dispatcher is blocked on
    // a full queue.
    bool cached = false;
    uint64_t hitsNow = 0, missesNow = 0;
    // The simulation completes through this promise, not the pool
    // task's own future, so the task can be submitted after the lock
    // is released while hits already hold the shared future.
    std::shared_ptr<std::promise<std::string>> promise;
    RequestPlans plans;
    {
        std::lock_guard<std::mutex> lock(dispatchMutex_);
        ++stream_.requests;
        output.pending = enterMemo(results_.get(), decoded.key, &promise);
        cached = !promise;
        ++(cached ? hits_ : misses_);
        hitsNow = hits_;
        missesNow = misses_;
        if (metricsOn)
            (cached ? metrics.hits : metrics.misses)->add();
        if (promise && plans_) {
            PlanKeys keys = planKeys(decoded.resolved, config_.hw);
            plans.system.wait = enterMemo(
                plans_.get(), std::move(keys.system), &plans.system.own);
            if (decoded.resolved.hasBaseline)
                plans.baseline.wait =
                    enterMemo(plans_.get(), std::move(keys.baseline),
                              &plans.baseline.own);
            if (metricsOn) {
                const auto memo = plans_->stats();
                metrics.memoHits->set(static_cast<int64_t>(memo.hits));
                metrics.memoMisses->set(
                    static_cast<int64_t>(memo.misses));
                metrics.memoEvictions->set(
                    static_cast<int64_t>(memo.evictions));
                metrics.memoEntries->set(
                    static_cast<int64_t>(memo.entries));
            }
        }
    }

    output.prefix = "{\"type\":\"result\"";
    if (!output.id.empty())
        output.prefix += ",\"id\":\"" + json::escape(output.id) + "\"";
    output.prefix += ",\"key\":\"" + decoded.key + "\"";
    if (envelope == Envelope::Full) {
        // Memo metadata: useful to a single-process client, but
        // dependent on this process's input history — the Stable
        // envelope leaves it out so shards stay byte-comparable.
        output.prefix +=
            cached ? ",\"cached\":true" : ",\"cached\":false";
        output.prefix += ",\"hits\":" + std::to_string(hitsNow);
        output.prefix += ",\"misses\":" + std::to_string(missesNow);
        const std::string &traceOut = decoded.resolved.request.traceOut;
        if (!cached && !traceOut.empty())
            output.prefix +=
                ",\"trace\":\"" + json::escape(traceOut) + "\"";
    }
    output.prefix += ",\"result\":";

    if (promise) {
        // Backpressure wait happens outside dispatchMutex_.
        if (metricsOn) {
            const double waitStartUs = obs::profileNowUs();
            acquireQueueSlot();
            metrics.queueWaitUs->observe(obs::profileNowUs() -
                                         waitStartUs);
        } else {
            acquireQueueSlot();
        }
        pool_.submit([this, resolved = std::move(decoded.resolved),
                      promise, plans = std::move(plans)] {
            struct SlotGuard
            {
                Service *service;
                ~SlotGuard() { service->releaseQueueSlot(); }
            } guard{this};
            try {
                promise->set_value(simulate(resolved, plans));
            } catch (...) {
                promise->set_exception(std::current_exception());
            }
        });
    }

    return output;
}

std::string
Service::render(Output &output)
{
    if (!output.error.ok())
        return errorResponseLine(output.id, output.error);
    if (output.raw)
        return output.value;
    try {
        return output.prefix + output.pending.get() + "}";
    } catch (const std::exception &e) {
        output.error = {"simulation_failed", "",
                        std::string("simulation failed: ") + e.what()};
        std::lock_guard<std::mutex> lock(dispatchMutex_);
        ++stream_.errors;
        return errorResponseLine(output.id, output.error);
    }
}

void
Service::observeEmitted(const Output &output)
{
    const Instruments &metrics = instruments_;
    if (!metrics.requests || output.raw)
        return;
    if (!output.error.ok())
        metrics.errors->add();
    metrics.latencyUs->observe(obs::profileNowUs() -
                               output.dispatchedUs);
}

Service::Pending
Service::submit(const std::string &line, Envelope envelope)
{
    Pending pending;
    std::lock_guard<std::mutex> lock(submitMutex_);
    pending.output_ = dispatch(line, envelope);
    return pending;
}

bool
Service::ready(const Pending &pending) const
{
    const Output &output = pending.output_;
    if (!output.error.ok() || output.raw)
        return true;
    return output.pending.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

std::string
Service::finish(Pending &pending)
{
    Output &output = pending.output_;
    std::string response = render(output);
    observeEmitted(output);
    return response;
}

std::string
Service::handleLine(const std::string &line, Envelope envelope)
{
    Pending pending = submit(line, envelope);
    return finish(pending);
}

Service::StreamStats
Service::processStream(std::istream &in, std::ostream &out,
                       bool emitStats, Envelope envelope)
{
    {
        std::lock_guard<std::mutex> lock(dispatchMutex_);
        stream_ = {};
    }

    pumpStream(
        in, out,
        [this, envelope](const std::string &line) {
            return submit(line, envelope);
        },
        std::bind_front(&Service::ready, this),
        std::bind_front(&Service::finish, this));

    StreamStats stats;
    {
        std::lock_guard<std::mutex> lock(dispatchMutex_);
        stats = stream_;
    }
    if (config_.metrics)
        obs::recordPoolUtilization(*config_.metrics, "serve.pool",
                                   pool_.threadCount(),
                                   pool_.tasksSubmitted(),
                                   pool_.tasksCompleted(),
                                   pool_.maxQueueDepth());
    if (emitStats)
        out << statsJson(stats).dump() << '\n';
    out.flush();
    return stats;
}

json::Value
Service::statsJson(const StreamStats &stream) const
{
    const CacheStats cache = cacheStats();
    json::Value v = json::Value::object();
    v.set("type", "stats");
    v.set("requests", stream.requests);
    v.set("errors", stream.errors);
    v.set("hits", hits());
    v.set("misses", misses());
    v.set("cache_entries", cache.entries);
    v.set("cache_capacity", cache.capacity);
    v.set("cache_evictions", cache.evictions);
    return v;
}

} // namespace gopim::serve
