#include "serve/service.hh"

#include <chrono>
#include <istream>
#include <optional>
#include <ostream>
#include <utility>

#include <deque>

#include "common/logging.hh"
#include "core/accelerator.hh"
#include "core/report.hh"
#include "obs/profile.hh"
#include "sim/trace.hh"
#include "workload/runner.hh"

namespace gopim::serve {

Service::Service(ServiceConfig config)
    : config_(std::move(config)),
      maxQueue_(config_.maxQueue),
      cache_(config_.cacheCapacity),
      pool_(ThreadPool::resolveJobs(config_.jobs))
{
    if (maxQueue_ == 0)
        maxQueue_ = 2 * pool_.threadCount();
    if (config_.cacheCapacity > 0) {
        trainPlans_ =
            std::make_unique<core::PlanMemo>(config_.cacheCapacity);
        familyPlans_ =
            std::make_unique<workload::PlanMemo>(config_.cacheCapacity);
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

size_t
Service::inflightSize() const
{
    std::lock_guard<std::mutex> lock(dispatchMutex_);
    return inflight_.size();
}

std::string
Service::simulate(const ResolvedRequest &resolved) const
{
    core::SystemConfig system = configuredSystem(resolved);

    // A per-request trace_out gets its own sink so the file holds
    // only this run; otherwise the server-wide sink (if any) records.
    std::shared_ptr<sim::ChromeTraceSink> sink;
    if (!resolved.request.traceOut.empty()) {
        sink = std::make_shared<sim::ChromeTraceSink>();
        system.sim.traceSink = sink;
    }

    // The inference families compile to core::StageCosts and run
    // through the workload runner; gcn-train keeps the accelerator
    // path with its fault machinery (parseRequest rejects fault knobs
    // for the others). Both end in the same core allocation and
    // execution. A family hit skips compiling its costs; a gcn-train
    // hit skips planning entirely, and only the scheduling half
    // re-runs. The system and the
    // baseline share one lazily built vertex profile, so a request
    // builds it at most once, and only on a gcn-train plan miss.
    const bool familyRun =
        resolved.request.family != workload::FamilyKind::GcnTrain;
    std::optional<gcn::VertexProfile> profile;
    const auto buildProfile = [&]() -> const gcn::VertexProfile & {
        if (!profile)
            profile = gcn::VertexProfile::build(
                resolved.workload.dataset, resolved.workload.seed);
        return *profile;
    };
    const auto runOn = [&](const core::SystemConfig &sys) {
        if (familyRun)
            return workload::runFamily(resolved.spec, sys, config_.hw,
                                       familyPlans_.get());
        const core::Accelerator accel(config_.hw, sys);
        const auto plan = core::memoizedPlan(
            trainPlans_.get(), accel, resolved.workload, buildProfile);
        return accel.executePlan(*plan, resolved.workload);
    };

    const core::RunResult run = runOn(system);
    json::Value result = core::runResultToJson(run);
    if (resolved.hasBaseline) {
        core::SystemConfig base = core::makeSystem(resolved.baseline);
        base.sim = resolved.request.sim;
        // The baseline runs in the same fault environment, so the
        // speedup isolates the system, not the device health.
        base.fault = resolved.request.fault;
        const core::RunResult baseRun = runOn(base);
        result.set("baseline", baseRun.systemName);
        result.set("speedup", run.speedupOver(baseRun));
        result.set("energy_saving", run.energySavingOver(baseRun));
    }

    if (sink)
        sink->writeFile(resolved.request.traceOut);
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

    json::Value body;
    std::string parseError;
    if (!json::Value::parse(line, &body, &parseError)) {
        output.error = {"bad_json", "", "invalid JSON: " + parseError};
        std::lock_guard<std::mutex> lock(dispatchMutex_);
        ++stream_.requests;
        return output;
    }
    if (body.isObject()) {
        // Echo the id even on validation failures.
        if (const json::Value *id = body.find("id");
            id && id->isString())
            output.id = id->asString();
        // {"type":"stats"} extension: a live stats snapshot, emitted
        // in order like any response. Handled before parseRequest —
        // it is a query, not a simulation request.
        if (const json::Value *type = body.find("type");
            type && type->isString() && type->asString() == "stats") {
            StreamStats current;
            {
                std::lock_guard<std::mutex> lock(dispatchMutex_);
                ++stream_.requests;
                current = stream_;
            }
            output.immediate = true;
            output.raw = true;
            output.value = statsJson(current).dump();
            return output;
        }
    }

    Request request;
    if (RequestError err =
            parseRequest(body, config_.defaults, &request);
        !err.ok()) {
        output.error = std::move(err);
        std::lock_guard<std::mutex> lock(dispatchMutex_);
        ++stream_.requests;
        return output;
    }
    output.id = request.id;

    ResolvedRequest resolved;
    if (RequestError err = resolveRequest(request, &resolved);
        !err.ok()) {
        output.error = std::move(err);
        std::lock_guard<std::mutex> lock(dispatchMutex_);
        ++stream_.requests;
        return output;
    }
    const std::string key = cacheKey(resolved, config_.hw);
    output.key = key;

    // The hit/miss decision is serial in input order: repeats of an
    // in-flight request coalesce onto its future, so the decision —
    // and therefore the response bytes — never depend on worker
    // timing. Only the decision happens under dispatchMutex_; the
    // (potentially long) backpressure wait below does not, so
    // hits()/misses()/statsJson() stay responsive while the
    // dispatcher is blocked on a full queue.
    bool cached = false;
    uint64_t hitsNow = 0, missesNow = 0;
    std::shared_ptr<std::promise<std::string>> promise;
    {
        std::lock_guard<std::mutex> lock(dispatchMutex_);
        ++stream_.requests;
        if (auto value = cache_.get(key)) {
            cached = true;
            output.immediate = true;
            output.value = std::move(*value);
            ++hits_;
        } else if (const auto it = inflight_.find(key);
                   it != inflight_.end() &&
                   it->second.wait_for(std::chrono::seconds(0)) !=
                       std::future_status::ready) {
            // Workers cache_.put before their future turns ready, so
            // a ready future here means the entry was evicted — drop
            // it below and re-simulate.
            cached = true;
            output.pending = it->second;
            ++hits_;
        } else {
            if (it != inflight_.end())
                inflight_.erase(it);
            // Sweep completed futures: their results live in the
            // cache, so the coalescing map only needs genuinely
            // in-flight entries and stays bounded by the window even
            // when responses are never re-looked-up.
            for (auto sweep = inflight_.begin();
                 sweep != inflight_.end();) {
                if (sweep->second.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready)
                    sweep = inflight_.erase(sweep);
                else
                    ++sweep;
            }
            ++misses_;
            // The simulation completes through this promise, not the
            // pool task's own future, so the task can be submitted
            // after the lock is released while coalescers already
            // hold the shared future.
            promise = std::make_shared<std::promise<std::string>>();
            output.pending = promise->get_future().share();
            inflight_[key] = output.pending;
        }
        hitsNow = hits_;
        missesNow = misses_;
        if (metricsOn) {
            (cached ? metrics.hits : metrics.misses)->add();
            metrics.inflightMax->recordMax(
                static_cast<int64_t>(inflight_.size()));
        }
    }

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
        pool_.submit([this, resolved = std::move(resolved), key,
                      promise] {
            struct SlotGuard
            {
                Service *service;
                ~SlotGuard() { service->releaseQueueSlot(); }
            } guard{this};
            try {
                std::string result = simulate(resolved);
                // Put before set_value: a ready future always means
                // the result reached the cache (the coalescing logic
                // above depends on this ordering).
                cache_.put(key, result);
                promise->set_value(std::move(result));
            } catch (...) {
                promise->set_exception(std::current_exception());
            }
        });
    }

    output.prefix = "{\"type\":\"result\"";
    if (!output.id.empty())
        output.prefix += ",\"id\":\"" + json::escape(output.id) + "\"";
    output.prefix += ",\"key\":\"" + key + "\"";
    if (envelope == Envelope::Full) {
        // Live cache metadata: useful to a single-process client,
        // but dependent on this process's history — the Stable
        // envelope leaves it out so shards stay byte-comparable.
        output.prefix +=
            cached ? ",\"cached\":true" : ",\"cached\":false";
        output.prefix += ",\"hits\":" + std::to_string(hitsNow);
        output.prefix += ",\"misses\":" + std::to_string(missesNow);
        if (!cached && !request.traceOut.empty())
            output.prefix += ",\"trace\":\"" +
                             json::escape(request.traceOut) + "\"";
    }
    output.prefix += ",\"result\":";
    return output;
}

std::string
Service::render(Output &output)
{
    if (!output.error.ok())
        return errorResponseLine(output.id, output.error);
    if (output.raw)
        return output.value;
    std::string value;
    if (output.immediate) {
        value = std::move(output.value);
    } else {
        try {
            value = output.pending.get();
        } catch (const std::exception &e) {
            output.error = {"simulation_failed", "",
                            std::string("simulation failed: ") +
                                e.what()};
            return errorResponseLine(output.id, output.error);
        }
    }
    return output.prefix + value + "}";
}

void
Service::retireInflight(const std::string &key)
{
    if (key.empty())
        return;
    std::lock_guard<std::mutex> lock(dispatchMutex_);
    const auto it = inflight_.find(key);
    // Only drop ready entries: a later miss on the same key may have
    // replaced this output's future with a live one that in-flight
    // repeats still need to find.
    if (it != inflight_.end() &&
        it->second.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready)
        inflight_.erase(it);
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
    // Running totals, raised monotonically so a stale read can never
    // lower them; the last response of a stream leaves them exact.
    if (trainPlans_) {
        const auto train = trainPlans_->stats();
        const auto family = familyPlans_->stats();
        metrics.memoHits->recordMax(
            static_cast<int64_t>(train.hits + family.hits));
        metrics.memoMisses->recordMax(
            static_cast<int64_t>(train.misses + family.misses));
        metrics.memoEvictions->recordMax(
            static_cast<int64_t>(train.evictions + family.evictions));
        metrics.memoEntries->set(
            static_cast<int64_t>(train.entries + family.entries));
    }
}

Service::Pending
Service::submit(const std::string &line, Envelope envelope)
{
    Pending pending;
    pending.output_ = dispatch(line, envelope);
    return pending;
}

bool
Service::ready(const Pending &pending) const
{
    const Output &output = pending.output_;
    if (!output.error.ok() || output.immediate)
        return true;
    return output.pending.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

std::string
Service::finish(Pending &pending)
{
    Output &output = pending.output_;
    std::string response = render(output);
    retireInflight(output.key);
    observeEmitted(output);
    if (!output.error.ok()) {
        std::lock_guard<std::mutex> lock(dispatchMutex_);
        ++stream_.errors;
    }
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
        // Coalescing is a per-stream notion; completed futures from
        // an earlier stream are already represented in the cache.
        std::lock_guard<std::mutex> lock(dispatchMutex_);
        inflight_.clear();
        stream_ = {};
    }

    // Responses wait in a deque window: entries are released as they
    // are emitted, so memory tracks the in-flight window instead of
    // the whole stream.
    std::deque<Pending> window;

    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        window.push_back(submit(line, envelope));
        // Flush every response whose turn has come and whose result
        // is ready, so output streams while the pool keeps working.
        while (!window.empty() && ready(window.front())) {
            out << finish(window.front()) << '\n';
            window.pop_front();
        }
    }
    // Drain: emit the rest in order, blocking as needed.
    while (!window.empty()) {
        out << finish(window.front()) << '\n';
        window.pop_front();
    }

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
    const ResultCache::Stats cache = cache_.stats();
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
