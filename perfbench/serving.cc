/**
 * @file
 * The serving workloads.
 *
 *   serve-mixed    an in-process serve::Service (nproc - 1 workers)
 *                  driven by one thread through submit/ready/finish;
 *                  mostly cache misses over a mixed request pool.
 *   router-3shard  an in-process cluster::Router over three spawned
 *                  single-job gopim_serve shards, driven through a
 *                  framed socketpair session; after the first block
 *                  every request is a cache hit.
 *
 * Both run a backlog phase: the stream offered as fast as backpressure
 * admits it, giving requests/s. serve-mixed then runs an open-loop
 * phase at one fixed offered rate, timing each request from its due
 * time. The router's latency is taken in the backlog, each request
 * timed from its own send: open-loop latency through the router is
 * set by thread wake-ups across its hops and did not repeat from run
 * to run.
 */

#include "serving.hh"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "cluster/router.hh"
#include "cluster/wire.hh"
#include "common/flags.hh"
#include "common/json.hh"
#include "common/net.hh"
#include "core/accelerator.hh"
#include "core/options.hh"
#include "core/report.hh"
#include "core/systems.hh"
#include "gcn/time_model.hh"
#include "isa/trace_io.hh"
#include "isa/verify.hh"
#include "layers.hh"
#include "obs/metrics.hh"
#include "oracle.hh"
#include "serve/cache.hh"
#include "serve/request.hh"
#include "serve/service.hh"
#include "sim/replay.hh"
#include "stats.hh"
#include "streams.hh"
#include "trace.hh"
#include "workload/runner.hh"

namespace perfbench {

namespace {

/**
 * The load loop. Request i is due at phase start + dueOffsetUs(i), or,
 * without a schedule, whenever the loop gets to send it. Samples grow
 * as requests are sent, so a long stream costs nothing until it is
 * offered.
 */
std::vector<LoadSample>
drive(size_t count, const std::function<double(size_t)> &dueOffsetUs,
      double deadlineUs, LoadTarget &target)
{
    std::vector<LoadSample> samples;
    const double start = nowUs();
    size_t limit = count;
    size_t completed = 0;
    std::vector<std::pair<size_t, double>> done;
    while (samples.size() < limit || completed < samples.size()) {
        const size_t sent = samples.size();
        bool progressed = false;
        if (deadlineUs > 0.0 && sent < limit &&
            nowUs() - start >= deadlineUs)
            limit = sent;
        if (sent < limit) {
            const double now = nowUs();
            const double due = dueOffsetUs ? start + dueOffsetUs(sent) : now;
            if (due <= now) {
                samples.push_back({due, now, 0.0});
                target.send(sent);
                progressed = true;
            }
        }
        done.clear();
        target.poll(&done);
        for (const auto &[index, at] : done) {
            samples[index].doneUs = at;
            ++completed;
        }
        if (progressed || !done.empty())
            continue;
        if (samples.size() == limit)
            target.flush();
        // Idle: sleep a little, but never past the next due time.
        double waitUs = 50.0;
        if (samples.size() < limit && dueOffsetUs)
            waitUs = std::min(waitUs, start + dueOffsetUs(samples.size()) -
                                          nowUs());
        if (waitUs > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::micro>(waitUs));
    }
    return samples;
}

} // namespace

std::vector<LoadSample>
driveLoad(const std::vector<double> &dueUs, double deadlineUs,
          LoadTarget &target)
{
    return drive(
        dueUs.size(), [&dueUs](size_t i) { return dueUs[i]; }, deadlineUs,
        target);
}

std::vector<LoadSample>
driveBacklog(size_t count, double deadlineUs, LoadTarget &target)
{
    return drive(count, nullptr, deadlineUs, target);
}

namespace {

using namespace gopim;

/** Worker threads of the in-process service: nproc - 1. */
size_t
serviceJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 1 ? n - 1 : 1;
}

/** The request defaults gopim_serve and gopim_router start with. */
serve::Request
servingDefaults()
{
    Flags flags("perfbench", "serving defaults");
    core::addSimFlags(flags);
    const char *argv[] = {"perfbench"};
    flags.parse(1, argv);
    serve::Request defaults;
    defaults.sim = core::simContextFromFlags(flags);
    defaults.fault = core::faultConfigFromFlags(flags);
    defaults.microBatch = 64;
    defaults.epochs = 1;
    return defaults;
}

/**
 * A generated request stream and the oracle's verdict on each response,
 * taken as it arrives. Request lines are built when sent, so only the
 * requests a run sends cost memory.
 */
struct Phase
{
    enum Verdict : uint8_t { NoResponse, Expected, BytesDiffer, WrongCode };

    std::string idPrefix;
    const std::vector<RequestTemplate> *pool = nullptr;
    std::vector<size_t> order;
    /** Expected response digest per template (expectedDigests). */
    std::vector<std::string> expect;
    /** Per request sent so far. */
    std::vector<Verdict> verdicts;
    /** GoPIM-over-baseline speedup per template that reports one. */
    std::map<size_t, double> speedups;
    std::vector<LoadSample> samples;
    /** Summed wall time of the phase's stretches, in seconds. */
    double wallS = 0.0;

    Phase(std::string prefix, const std::vector<RequestTemplate> &templates,
          std::vector<size_t> indices)
        : idPrefix(std::move(prefix)), pool(&templates),
          order(std::move(indices))
    {
        // Reserved, not touched: memory grows with the requests sent,
        // never in doubling steps.
        verdicts.reserve(order.size());
        samples.reserve(order.size());
    }

    std::string id(size_t i) const { return idPrefix + std::to_string(i); }

    std::string line(size_t i) const
    {
        return requestLine((*pool)[order[i]], id(i));
    }

    /** Take the expectations from a map keyed "t<template>". */
    void
    expectDigests(const std::map<std::string, std::string> &digests)
    {
        expect.assign(pool->size(), "");
        for (size_t t = 0; t < pool->size(); ++t)
            if (const auto it = digests.find("t" + std::to_string(t));
                it != digests.end())
                expect[t] = it->second;
    }

    void
    record(size_t i, const std::string &response)
    {
        if (verdicts.size() <= i)
            verdicts.resize(i + 1, NoResponse);
        const size_t t = order[i];
        const RequestTemplate &shape = (*pool)[t];
        if (t >= expect.size() || expect[t].empty() ||
            responseDigest(response, id(i)) != expect[t])
            verdicts[i] = BytesDiffer;
        else if (!shape.expectCode.empty() &&
                 response.find("\"code\":\"" + shape.expectCode + "\"") ==
                     std::string::npos)
            verdicts[i] = WrongCode;
        else
            verdicts[i] = Expected;
        if (!shape.expectCode.empty() || speedups.count(t))
            return;
        json::Value v;
        if (!json::Value::parse(response, &v))
            return;
        const json::Value *result = v.find("result");
        const json::Value *speedup =
            result ? result->find("speedup") : nullptr;
        if (speedup && speedup->isNumber())
            speedups[t] = speedup->asDouble();
    }

    /** Requests the phase actually sent (a deadline may cut it). */
    size_t sent() const { return samples.size(); }

    void
    clearSamples()
    {
        samples.clear();
        wallS = 0.0;
    }

    /** Append one stretch's samples and its wall time. */
    void
    addStretch(const std::vector<LoadSample> &part)
    {
        samples.insert(samples.end(), part.begin(), part.end());
        if (part.empty())
            return;
        double last = 0.0;
        for (const auto &s : part)
            last = std::max(last, s.doneUs);
        wallS += (last - part.front().sentUs) / 1e6;
    }
};

/** Count every sent request of `phase` whose verdict is not Expected. */
void
checkPhase(const Phase &phase, Outcome *outcome)
{
    for (size_t i = 0; i < phase.sent(); ++i) {
        ++outcome->attempted;
        const auto verdict =
            i < phase.verdicts.size() ? phase.verdicts[i] : Phase::NoResponse;
        if (verdict == Phase::Expected)
            continue;
        const char *why = verdict == Phase::NoResponse ? "no response"
                          : verdict == Phase::BytesDiffer
                              ? "response bytes differ"
                              : "wrong error code";
        if (++outcome->failed <= 5)
            outcome->notes.push_back(
                "oracle: " + phase.id(i) + " (template " +
                std::to_string(phase.order[i]) + "): " + why);
    }
}

/**
 * Expected response digest per template ("t<i>"): the committed
 * golden file for the golden seed, else a serial in-process
 * recomputation on a one-worker service with the stable envelope.
 */
std::map<std::string, std::string>
expectedDigests(const Options &options,
                const std::vector<RequestTemplate> &pool,
                const serve::Request &defaults, Outcome *outcome)
{
    if (auto golden = committedDigests(options, &outcome->notes))
        return *golden;
    serve::ServiceConfig config;
    config.jobs = 1;
    config.cacheCapacity = pool.size() + 1;
    config.defaults = defaults;
    serve::Service reference(config);
    std::map<std::string, std::string> out;
    for (size_t t = 0; t < pool.size(); ++t) {
        const std::string response = reference.handleLine(
            requestLine(pool[t], kIdPlaceholder), serve::Envelope::Stable);
        out["t" + std::to_string(t)] =
            responseDigest(response, kIdPlaceholder);
    }
    return out;
}

/** A load target working through one Phase, one chunk at a time. */
class PhaseTarget : public LoadTarget
{
  public:
    /** Chunk-local request i is the phase's request base + i. */
    void setBase(size_t base) { base_ = base; }

  protected:
    size_t base_ = 0;
};

/** Drives a serve::Service through submit/ready/finish. */
class ServiceTarget final : public PhaseTarget
{
  public:
    ServiceTarget(serve::Service &service, Phase &phase)
        : service_(service), phase_(phase)
    {
    }

    void
    send(size_t index) override
    {
        window_.emplace_back(
            index, service_.submit(phase_.line(base_ + index),
                                   serve::Envelope::Stable));
    }

    void
    poll(std::vector<std::pair<size_t, double>> *done) override
    {
        for (auto it = window_.begin(); it != window_.end();) {
            if (!service_.ready(it->second)) {
                ++it;
                continue;
            }
            const std::string response = service_.finish(it->second);
            done->emplace_back(it->first, nowUs());
            phase_.record(base_ + it->first, response);
            it = window_.erase(it);
        }
    }

  private:
    serve::Service &service_;
    Phase &phase_;
    std::deque<std::pair<size_t, serve::Service::Pending>> window_;
};

/**
 * Backlog chunk lengths: short against the host's speed drift, long
 * against the drain at each chunk's end, where workers fall idle. A
 * router chunk drains in milliseconds; a serve-mixed chunk can end on
 * a 100 ms simulation.
 */
constexpr double kRouterChunkS = 0.5;
constexpr double kServeChunkS = 2.0;

/** Open-loop segment length: a few hundred requests at the set rate. */
constexpr double kSegmentS = 2.0;

/**
 * Backlog: offer `phase` as fast as backpressure admits, in chunks of
 * `chunkS` seconds, until `seconds` have passed or its requests run
 * out. Each chunk completes before the next starts, and
 * `calibration` is sampled in between while the program is idle. Each
 * request's latency counts from its own send.
 */
void
runBacklog(Phase &phase, PhaseTarget &target, double seconds,
           double chunkS, Calibration &calibration)
{
    phase.clearSamples();
    const double start = nowUs();
    calibration.sample();
    while (phase.sent() < phase.order.size() &&
           (phase.sent() == 0 || nowUs() - start < seconds * 1e6)) {
        target.setBase(phase.sent());
        phase.addStretch(driveBacklog(phase.order.size() - phase.sent(),
                                      chunkS * 1e6, target));
        calibration.sample();
    }
}

/**
 * Open loop: all of `phase` at a constant `rate`, in segments of about
 * kSegmentS seconds with `calibration` sampled in between. Each
 * segment drains before the next starts; at the set rate its queues
 * are short, so little is lost against one unbroken run.
 */
void
runOpenLoop(Phase &phase, PhaseTarget &target, double rate,
            Calibration &calibration)
{
    phase.clearSamples();
    const size_t per = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(kSegmentS * rate)));
    calibration.sample();
    while (phase.sent() < phase.order.size()) {
        const size_t count = std::min(per, phase.order.size() - phase.sent());
        target.setBase(phase.sent());
        phase.addStretch(
            driveLoad(openLoopSchedule(count, rate), 0.0, target));
        calibration.sample();
    }
}

std::vector<double>
lagsMs(const std::vector<LoadSample> &samples)
{
    std::vector<double> out;
    for (const auto &s : samples)
        out.push_back(s.lagMs());
    return out;
}


double
speedupGeomean(const std::vector<const Phase *> &phases)
{
    std::map<size_t, double> all;
    for (const Phase *phase : phases)
        all.insert(phase->speedups.begin(), phase->speedups.end());
    std::vector<double> values;
    for (const auto &[t, v] : all)
        values.push_back(v);
    return geomean(values);
}

/**
 * The end-to-end metrics common to both serving workloads, with times
 * scaled to the reference speed (bench.hh): throughput from the
 * backlog phase, latency from `timed` (the open-loop phase, or the
 * backlog itself), peak memory up to now (the end of the timed
 * phases).
 */
void
addServingMetrics(const Phase &backlog, const Phase &timed,
                  double setupS, const Calibration &calibration,
                  Outcome *outcome)
{
    outcome->add("peak_rss_mb", peakRssMb(), "MiB");
    // The run's median speed: a few busy cores answer to the host's
    // state less directly than one, and one stretch's loops are noisy.
    const double speed = calibration.speed();
    // An operation of a serving workload is one request line.
    outcome->add("ops_per_s",
                 static_cast<double>(backlog.sent()) / (backlog.wallS * speed),
                 "ops/s");
    std::vector<double> latency;
    for (const auto &s : timed.samples)
        latency.push_back(s.latencyMs() * speed);
    outcome->add("latency_p50_ms", windowedPercentile(latency, 50.0), "ms");
    outcome->add("latency_tail_ms", windowedTailMean(latency, 95.0),
                 "ms");
    outcome->add("sim_speedup_geomean", speedupGeomean({&backlog, &timed}),
                 "x");
    outcome->add("setup_s", setupS, "s");
    std::ostringstream note;
    note << "backlog: " << backlog.sent() << " requests in "
         << backlog.wallS << " s; latency phase: " << timed.sent()
         << " requests, latency (scaled) " << describeTiming(latency)
         << ", send lag " << describeTiming(lagsMs(timed.samples)) << "; "
         << calibration.describe();
    outcome->notes.push_back(note.str());
}

// ----------------------------------------------------------------------
// Traced serve path: Service::simulate's steps through public calls.
// ----------------------------------------------------------------------

struct IsaTally
{
    double commands = 0.0;
    double bytes = 0.0;
};

sim::Regime
regimeOf(core::PipelineMode mode)
{
    switch (mode) {
      case core::PipelineMode::Serial:
        return sim::Regime::Serial;
      case core::PipelineMode::IntraBatch:
        return sim::Regime::IntraBatch;
      case core::PipelineMode::IntraInterBatch:
        break;
    }
    return sim::Regime::IntraInterBatch;
}

/**
 * Probes of the ISA layer on a replay request's schedule: lowering and
 * semantic verification (what the replay engine does inside
 * executePlan) and the GPIS trace encode/decode round trip.
 */
void
isaProbes(const core::StagePlan &plan, const core::SystemConfig &system,
          Tracer &tracer, uint64_t op, IsaTally *tally)
{
    const sim::SimContext &ctx = system.sim;
    sim::ScheduleRequest request;
    request.stageTimesNs = ctx.event.replicasAsServers
                               ? plan.serverStageTimesNs
                               : plan.stageTimesNs;
    request.replicas = plan.effectiveReplicas;
    request.totalMicroBatches = plan.totalMicroBatches;
    request.microBatchesPerBatch = system.microBatchesPerBatch;
    request.regime = regimeOf(system.pipelineMode);
    isa::TraceBundle bundle;
    {
        ScopedSpan span(&tracer, "isa.lower", op, true);
        bundle.streams.push_back(sim::lowerRequest(request, ctx));
    }
    tally->commands +=
        static_cast<double>(bundle.streams[0].commands.size());
    {
        ScopedSpan span(&tracer, "isa.verify", op, true);
        isa::verifyStream(bundle.streams[0]);
    }
    std::string bytes;
    {
        ScopedSpan span(&tracer, "isa.encode", op, true);
        bytes = isa::encodeBundle(bundle);
    }
    tally->bytes += static_cast<double>(bytes.size());
    {
        ScopedSpan span(&tracer, "isa.decode", op, true);
        isa::TraceBundle back;
        std::string error;
        isa::decodeBundle(bytes, &back, &error);
    }
}

core::RunResult
tracedTrainRun(const core::SystemConfig &system,
               const reram::AcceleratorConfig &hw,
               const gcn::Workload &workload,
               const gcn::VertexProfile &profile, Tracer &tracer,
               uint64_t op, IsaTally *isaTally)
{
    core::SystemConfig timed = system;
    if (timed.allocator)
        timed.allocator =
            std::make_shared<TimedAllocator>(timed.allocator, &tracer, &op);
    const core::Accelerator accel(hw, timed);
    gcn::MappingArtifacts artifacts;
    {
        ScopedSpan span(&tracer, "mapping.artifacts", op, true);
        artifacts = gcn::MappingArtifacts::build(
            profile, system.policy, workload.dataset, hw.crossbar.rows);
    }
    {
        ScopedSpan span(&tracer, "gcn.cost", op, true);
        gcn::StageTimeModel(hw).allCosts(workload, system.policy,
                                         artifacts);
    }
    core::StagePlan plan;
    {
        ScopedSpan span(&tracer, "core.plan", op);
        plan = accel.buildPlan(workload, profile);
    }
    if (isaTally && system.sim.engine == sim::EngineKind::Replay)
        isaProbes(plan, system, tracer, op, isaTally);
    ScopedSpan span(&tracer, "sim.schedule", op);
    return accel.executePlan(plan, workload);
}

/** Service::simulate, step by step in spans. */
std::string
tracedSimulate(const serve::ResolvedRequest &resolved,
               const reram::AcceleratorConfig &hw, Tracer &tracer,
               uint64_t op, IsaTally *isaTally)
{
    const core::SystemConfig system = serve::configuredSystem(resolved);
    const bool familyRun =
        resolved.request.family != workload::FamilyKind::GcnTrain;
    core::RunResult run;
    gcn::VertexProfile profile;
    if (familyRun) {
        ScopedSpan span(&tracer, "workload.run", op);
        run = workload::runFamily(resolved.spec, system, hw);
    } else {
        {
            ScopedSpan span(&tracer, "gcn.profile", op);
            profile = gcn::VertexProfile::build(resolved.workload.dataset,
                                                resolved.workload.seed);
        }
        run = tracedTrainRun(system, hw, resolved.workload, profile,
                             tracer, op, isaTally);
    }
    json::Value result;
    {
        ScopedSpan span(&tracer, "core.report", op);
        result = core::runResultToJson(run);
    }
    if (resolved.hasBaseline) {
        core::SystemConfig base = core::makeSystem(resolved.baseline);
        base.sim = resolved.request.sim;
        base.fault = resolved.request.fault;
        core::RunResult baseRun;
        if (familyRun) {
            ScopedSpan span(&tracer, "workload.run", op);
            baseRun = workload::runFamily(resolved.spec, base, hw);
        } else {
            baseRun = tracedTrainRun(base, hw, resolved.workload, profile,
                                     tracer, op, nullptr);
        }
        result.set("baseline", baseRun.systemName);
        result.set("speedup", run.speedupOver(baseRun));
        result.set("energy_saving", run.energySavingOver(baseRun));
    }
    ScopedSpan span(&tracer, "core.report", op);
    return result.dump();
}

/** Service::handleLine (stable envelope) in spans, serially. */
std::string
tracedHandle(const std::string &line, const serve::Request &defaults,
             const reram::AcceleratorConfig &hw, serve::ResultCache &cache,
             Tracer &tracer, uint64_t op, IsaTally *isaTally)
{
    std::string id;
    serve::RequestError error;
    serve::ResolvedRequest resolved;
    {
        ScopedSpan span(&tracer, "serve.parse", op);
        json::Value body;
        std::string parseError;
        if (!json::Value::parse(line, &body, &parseError)) {
            error = {"bad_json", "", "invalid JSON: " + parseError};
        } else {
            if (const json::Value *v = body.isObject() ? body.find("id")
                                                       : nullptr;
                v && v->isString())
                id = v->asString();
            serve::Request request;
            error = serve::parseRequest(body, defaults, &request);
            if (error.ok()) {
                id = request.id;
                error = serve::resolveRequest(request, &resolved);
            }
        }
    }
    if (!error.ok())
        return serve::errorResponseLine(id, error);
    std::string key;
    {
        ScopedSpan span(&tracer, "serve.key", op);
        key = serve::cacheKey(resolved, hw);
    }
    std::optional<std::string> value;
    {
        ScopedSpan span(&tracer, "serve.cache", op);
        value = cache.get(key);
    }
    if (!value) {
        try {
            value = tracedSimulate(resolved, hw, tracer, op, isaTally);
        } catch (const std::exception &e) {
            return serve::errorResponseLine(
                id, {"simulation_failed", "",
                     std::string("simulation failed: ") + e.what()});
        }
        ScopedSpan span(&tracer, "serve.cache", op);
        cache.put(key, *value);
    }
    std::string out = "{\"type\":\"result\"";
    if (!id.empty())
        out += ",\"id\":\"" + json::escape(id) + "\"";
    return out + ",\"key\":\"" + key + "\",\"result\":" + *value + "}";
}

/** Percentile of an obs::Histogram, as its bucket's upper bound. */
double
histogramPercentileMs(const obs::Histogram *h, double p)
{
    if (!h || h->count() == 0)
        return 0.0;
    const auto counts = h->bucketCounts();
    const auto rank = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(h->count())));
    uint64_t seen = 0;
    for (size_t b = 0; b < counts.size(); ++b) {
        seen += counts[b];
        if (seen >= rank)
            return (b < h->bounds().size() ? h->bounds()[b]
                                           : h->bounds().back()) /
                   1000.0;
    }
    return h->bounds().back() / 1000.0;
}

/** Shared per-layer report lines for the two serving traced runs. */
void
addLayerTotals(const Tracer &tracer, double ops, Outcome *outcome)
{
    auto totals = tracer.totals();
    auto ms = [&](const std::string &name) {
        return totals[name].selfUs / 1000.0 / ops;
    };
    auto calls = [&](const std::string &name) {
        return static_cast<double>(totals[name].calls) / ops;
    };
    outcome->add("gcn.profile_ms", ms("gcn.profile"), "ms");
    outcome->add("gcn.profile_calls", calls("gcn.profile"), "count");
    outcome->add("mapping.artifacts_ms", ms("mapping.artifacts"), "ms");
    outcome->add("mapping.artifacts_calls", calls("mapping.artifacts"),
                 "count");
    outcome->add("gcn.cost_ms", ms("gcn.cost"), "ms");
    outcome->add("alloc.allocate_ms", ms("alloc.allocate"), "ms");
    outcome->add("alloc.allocate_calls", calls("alloc.allocate"),
                 "count");
    outcome->add("core.plan_self_ms",
                 std::max(0.0, ms("core.plan") - ms("mapping.artifacts") -
                                   ms("gcn.cost")),
                 "ms");
    outcome->add("core.report_ms", ms("core.report"), "ms");
    outcome->add("sim.schedule_ms", ms("sim.schedule"), "ms");
    outcome->add("sim.schedule.count", calls("sim.schedule"), "count");
    outcome->add("workload.run_ms", ms("workload.run"), "ms");
    outcome->add("isa.lower_ms", ms("isa.lower"), "ms");
    outcome->add("isa.verify_ms", ms("isa.verify"), "ms");
    outcome->add("isa.encode_ms", ms("isa.encode"), "ms");
    outcome->add("isa.decode_ms", ms("isa.decode"), "ms");
    outcome->add("serve.parse_ms", ms("serve.parse"), "ms");
    outcome->add("serve.key_ms", ms("serve.key"), "ms");
    outcome->add("serve.cache_ms", ms("serve.cache"), "ms");
    outcome->add("cluster.route_ms", ms("cluster.route"), "ms");
}

// ----------------------------------------------------------------------
// serve-mixed
// ----------------------------------------------------------------------

struct ServeInputs
{
    std::vector<RequestTemplate> pool;
    serve::Request defaults;
    std::string defaultsFp;
};

ServeInputs
serveInputs(const std::vector<RequestTemplate> &pool)
{
    ServeInputs in;
    in.pool = pool;
    in.defaults = servingDefaults();
    // Resolves {} against the catalogs, as a server does at start.
    in.defaultsFp = serve::defaultsFingerprint(
        in.defaults, reram::AcceleratorConfig::paperDefault());
    return in;
}

serve::ServiceConfig
serviceConfig(const ServeInputs &in, size_t jobs,
              std::shared_ptr<obs::MetricsRegistry> metrics = nullptr)
{
    serve::ServiceConfig config;
    config.jobs = jobs;
    // Smaller than the pool's working set, so most requests miss and
    // the LRU evicts.
    config.cacheCapacity = 64;
    config.defaults = in.defaults;
    config.metrics = std::move(metrics);
    return config;
}

} // namespace

Outcome
runServeMixed(const Options &options)
{
    Outcome outcome;
    const double seconds = options.seconds;
    const auto backlogCount =
        static_cast<size_t>(std::max(2000.0, 500 * seconds));
    const auto openCount = static_cast<size_t>(
        std::ceil(options.serveRate * 0.6 * seconds));
    // Set-up: the request streams, the serving defaults and a started
    // service.
    ServeInputs in;
    std::unique_ptr<Phase> backlog, open;
    std::unique_ptr<serve::Service> service;
    Calibration setupCalibration;
    const double setupS = medianSetupSeconds([&] {
        service.reset();
        in = serveInputs(serveMixedTemplates(options.seed));
        backlog = std::make_unique<Phase>(
            "b", in.pool,
            serveMixedOrder(in.pool, options.seed, 1, backlogCount));
        open = std::make_unique<Phase>(
            "o", in.pool,
            serveMixedOrder(in.pool, options.seed, 2, openCount));
        service = std::make_unique<serve::Service>(
            serviceConfig(in, serviceJobs()));
    }, &setupCalibration);
    // Expectations first (untimed), so responses are checked as they
    // arrive and never held.
    const auto expected =
        expectedDigests(options, in.pool, in.defaults, &outcome);
    if (!options.writeGolden.empty()) {
        if (!writeGolden(options.writeGolden, {options.seed, expected}))
            outcome.failed = outcome.attempted = 1;
        return outcome;
    }
    backlog->expectDigests(expected);
    open->expectDigests(expected);

    if (!options.trace) {
        Calibration calibration(serviceJobs());
        {
            ServiceTarget target(*service, *backlog);
            runBacklog(*backlog, target, 0.4 * seconds, kServeChunkS,
                       calibration);
        }
        service.reset();
        {
            serve::Service fresh(serviceConfig(in, serviceJobs()));
            ServiceTarget target(fresh, *open);
            runOpenLoop(*open, target, options.serveRate, calibration);
        }
        checkPhase(*backlog, &outcome);
        checkPhase(*open, &outcome);
        addServingMetrics(*backlog, *open, setupS, calibration, &outcome);
        return outcome;
    }

    // Traced run. (a) the open-loop phase with the service's metrics
    // registry attached; (b) the backlog stream through a one-worker
    // service, untraced; (c) the same requests through the traced
    // serial path, for per-layer self time.
    service.reset();
    auto registry = std::make_shared<obs::MetricsRegistry>();
    Phase &load = *open;
    uint64_t hits = 0, misses = 0, evictions = 0;
    {
        serve::Service loaded(serviceConfig(in, serviceJobs(), registry));
        ServiceTarget target(loaded, load);
        Calibration unused;
        runOpenLoop(load, target, options.serveRate, unused);
        hits = loaded.hits();
        misses = loaded.misses();
        evictions = loaded.cacheStats().evictions;
    }

    Phase &serial = *backlog;
    size_t serialCount = 0;
    double plainUs = 0.0;
    {
        serve::Service one(serviceConfig(in, 1));
        const double t0 = nowUs();
        while (serialCount < serial.order.size() &&
               nowUs() - t0 < 0.3 * seconds * 1e6) {
            serial.record(serialCount,
                          one.handleLine(serial.line(serialCount),
                                         serve::Envelope::Stable));
            ++serialCount;
        }
        plainUs = nowUs() - t0;
    }
    Tracer tracer;
    IsaTally isaTally;
    Phase traced("b", in.pool, serial.order);
    traced.expectDigests(expected);
    double tracedUs = 0.0;
    {
        serve::ResultCache cache(64);
        const auto hw = reram::AcceleratorConfig::paperDefault();
        const double t0 = nowUs();
        for (size_t i = 0; i < serialCount; ++i)
            traced.record(i, tracedHandle(traced.line(i), in.defaults, hw,
                                          cache, tracer, i, &isaTally));
        tracedUs = nowUs() - t0;
    }
    serial.samples.resize(serialCount);
    traced.samples.resize(serialCount);

    checkPhase(load, &outcome);
    checkPhase(serial, &outcome);
    checkPhase(traced, &outcome);
    if (!options.traceOut.empty())
        tracer.write(options.traceOut);

    const double ops = static_cast<double>(serialCount);
    addLayerTotals(tracer, ops, &outcome);
    outcome.add("isa.commands", isaTally.commands / ops, "count");
    outcome.add("isa.trace_bytes", isaTally.bytes / ops, "bytes");
    outcome.add("serve.hits", static_cast<double>(hits), "count");
    outcome.add("serve.misses", static_cast<double>(misses), "count");
    outcome.add("serve.evictions", static_cast<double>(evictions), "count");
    const obs::Histogram *wait =
        registry->findHistogram("serve.queue.wait_us");
    outcome.add("serve.queue_wait_p50_ms", histogramPercentileMs(wait, 50),
                "ms");
    outcome.add("serve.queue_wait_p95_ms", histogramPercentileMs(wait, 95),
                "ms");
    const obs::Gauge *inflight = registry->findGauge("serve.inflight.max");
    outcome.add("serve.inflight_max",
                inflight ? static_cast<double>(inflight->value()) : 0.0,
                "count");
    outcome.add("driver.lag_p95_ms",
                windowedPercentile(lagsMs(load.samples), 95.0), "ms");
    outcome.add("trace.overhead_pct", 100.0 * (tracedUs / plainUs - 1.0),
                "%");
    outcome.add("trace.covered_pct", 100.0 * tracer.coveredUs() / plainUs,
                "%");
    std::ostringstream note;
    note << "traced " << serialCount << " requests serially: "
         << tracedUs / 1e3 << " ms traced vs " << plainUs / 1e3
         << " ms untraced; open-loop phase " << load.sent()
         << " requests, hits " << hits << " / misses " << misses
         << ", queue wait histogram n="
         << (wait ? wait->count() : 0);
    outcome.notes.push_back(note.str());
    return outcome;
}

// ----------------------------------------------------------------------
// router-3shard
// ----------------------------------------------------------------------

namespace {

constexpr size_t kShards = 3;

std::unique_ptr<cluster::Router>
startRouter(const Options &options, const ServeInputs &in,
            std::shared_ptr<obs::MetricsRegistry> metrics,
            std::string *error)
{
    cluster::RouterConfig config;
    for (size_t i = 0; i < kShards; ++i) {
        cluster::ShardSpec spec;
        spec.name = "shard" + std::to_string(i);
        spec.command = {options.serveBin, "--jobs=1"};
        spec.portFile = options.runDir + "/" + spec.name + ".port";
        config.shards.push_back(std::move(spec));
    }
    config.defaults = in.defaults;
    config.metrics = std::move(metrics);
    auto router = std::make_unique<cluster::Router>(std::move(config));
    *error = router->start();
    return router;
}

/**
 * A framed client session with the router over a socketpair: the
 * router pumps it on its own thread, a reader thread timestamps each
 * response, and the load thread sends.
 *
 * The router writes a finished response only after it reads the next
 * request frame (or EOF), so the last requests of a phase would wait
 * forever. flush() therefore sends {"type":"stats"} pings, which the
 * router answers itself, until the phase's responses are out. No
 * pings are sent while a phase still has requests to offer: the wait
 * for the next arrival is part of the latency a client sees.
 */
class RouterSession final : public PhaseTarget
{
  public:
    RouterSession(cluster::Router &router, const std::string &defaultsFp,
                  std::string *error)
    {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
            *error = "socketpair failed";
            return;
        }
        client_.reset(fds[0]);
        server_.reset(fds[1]);
        pump_ = std::thread([&router, fd = server_.get()] {
            router.processFramed(fd);
        });
        std::string reply;
        if (!net::writeFrame(client_.get(),
                             cluster::helloLine("client",
                                                serve::Envelope::Stable,
                                                defaultsFp)) ||
            net::readFrame(client_.get(), &reply) != net::IoStatus::Ok) {
            *error = "router hello failed";
        } else {
            *error = cluster::checkHelloReply(reply, defaultsFp);
        }
        reader_ = std::thread([this] { readLoop(); });
    }

    ~RouterSession() { close(); }

    RouterSession(const RouterSession &) = delete;
    RouterSession &operator=(const RouterSession &) = delete;

    /** Route the next requests from `phase`; the previous one is done. */
    void
    beginPhase(Phase *phase, std::function<void(size_t)> beforeSend = {})
    {
        phase_ = phase;
        beforeSend_ = std::move(beforeSend);
    }

    void
    send(size_t index) override
    {
        if (beforeSend_)
            beforeSend_(base_ + index);
        write(index, phase_->line(base_ + index));
    }

    void
    poll(std::vector<std::pair<size_t, double>> *done) override
    {
        std::deque<Arrival> arrivals;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            arrivals.swap(arrivals_);
        }
        for (auto &a : arrivals) {
            done->emplace_back(a.index, a.atUs);
            phase_->record(base_ + a.index, a.response);
        }
    }

    void
    flush() override
    {
        if (nowUs() - lastPingUs_ < 1000.0)
            return;
        lastPingUs_ = nowUs();
        write(kPing, "{\"type\":\"stats\"}");
    }

    /** End the session: EOF to the router, then join both threads. */
    void
    close()
    {
        if (client_.valid())
            ::shutdown(client_.get(), SHUT_WR);
        if (pump_.joinable())
            pump_.join();
        server_.reset();
        if (reader_.joinable())
            reader_.join();
        client_.reset();
    }

  private:
    static constexpr size_t kPing = static_cast<size_t>(-1);

    struct Arrival
    {
        size_t index = 0;
        double atUs = 0.0;
        std::string response;
    };

    /** Send one frame; responses come back in send order. */
    void
    write(size_t index, const std::string &line)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            inFlight_.push_back(index);
        }
        net::writeFrame(client_.get(), line);
    }

    void
    readLoop()
    {
        std::string payload;
        while (net::readFrame(client_.get(), &payload) ==
               net::IoStatus::Ok) {
            const double at = nowUs();
            std::lock_guard<std::mutex> lock(mutex_);
            if (inFlight_.empty())
                continue; // an answer to nothing sent: not ours to count
            const size_t index = inFlight_.front();
            inFlight_.pop_front();
            if (index != kPing)
                arrivals_.push_back({index, at, std::move(payload)});
        }
    }

    net::Fd client_;
    net::Fd server_;
    Phase *phase_ = nullptr;
    std::function<void(size_t)> beforeSend_;
    double lastPingUs_ = 0.0;
    std::mutex mutex_;
    /** Phase index of every frame sent and not yet answered. */
    std::deque<size_t> inFlight_;
    std::deque<Arrival> arrivals_;
    // Threads last: they use every member above.
    std::thread pump_;
    std::thread reader_;
};

/** Mean round trip of one request/response frame pair, in ms. */
double
frameRoundTripMs(const std::string &request, const std::string &response,
                 Tracer &tracer, size_t trips)
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        return 0.0;
    net::Fd a(fds[0]), b(fds[1]);
    std::string payload;
    const double t0 = nowUs();
    for (size_t i = 0; i < trips; ++i) {
        ScopedSpan span(&tracer, "cluster.frame_rtt", i, true);
        net::writeFrame(a.get(), request);
        net::readFrame(b.get(), &payload);
        net::writeFrame(b.get(), response);
        net::readFrame(a.get(), &payload);
    }
    return (nowUs() - t0) / 1000.0 / static_cast<double>(trips);
}

} // namespace

Outcome
runRouter(const Options &options)
{
    Outcome outcome;
    const double seconds = options.seconds;
    ServeInputs in;
    std::unique_ptr<cluster::Router> router;
    auto registry = std::make_shared<obs::MetricsRegistry>();
    std::string startError;
    const double setupS = medianSetupSeconds([&] {
        // Stopping the previous router (and reaping its shards) is
        // not set-up work, but it is rare enough to leave in.
        router.reset();
        in = serveInputs(routerTemplates(options.seed));
        if (startError.empty())
            router = startRouter(options, in, registry, &startError);
    }, nullptr);
    if (!startError.empty()) {
        outcome.notes.push_back("router start failed: " + startError);
        outcome.attempted = outcome.failed = 1;
        return outcome;
    }
    const auto expected =
        expectedDigests(options, in.pool, in.defaults, &outcome);
    if (!options.writeGolden.empty()) {
        if (!writeGolden(options.writeGolden, {options.seed, expected}))
            outcome.failed = outcome.attempted = 1;
        return outcome;
    }

    std::string error;
    RouterSession session(*router, in.defaultsFp, &error);
    if (!error.empty()) {
        session.close();
        outcome.notes.push_back("router session failed: " + error);
        outcome.attempted = outcome.failed = 1;
        return outcome;
    }
    // Untraced: the backlog alone, which gives throughput and, with
    // each request timed from its own send, latency under backpressure.
    // Traced: a shorter backlog for reference, then a span-timed one.
    // A stream holds about as many requests as the phase can send.
    auto stream = [&](const std::string &prefix, uint64_t salt,
                      double phaseSeconds) {
        const auto length = static_cast<size_t>(40000.0 * phaseSeconds);
        auto phase = std::make_unique<Phase>(
            prefix, in.pool,
            routerOrder(in.pool.size(), options.seed + salt,
                        std::max<size_t>(length, 2 * in.pool.size())));
        phase->expectDigests(expected);
        return phase;
    };
    const double backlogS = (options.trace ? 0.4 : 0.6) * seconds;
    const double tracedS = 0.5 * seconds;
    Calibration calibration(kShards);
    auto backlogPhase = stream("b", 0, backlogS);
    Phase &backlog = *backlogPhase;
    session.beginPhase(&backlog);
    runBacklog(backlog, session, backlogS, kRouterChunkS, calibration);
    Tracer tracer;
    std::vector<double> shardLoad(kShards, 0.0);
    std::unique_ptr<Phase> tracedPhase;
    if (options.trace) {
        tracedPhase = stream("t", 2, tracedS);
        Phase &traced = *tracedPhase;
        const auto hw = reram::AcceleratorConfig::paperDefault();
        session.beginPhase(&traced, [&](size_t i) {
            // The router's own per-request work, timed from outside:
            // parse and resolve, cache key, rendezvous placement.
            const std::string line = traced.line(i);
            serve::ResolvedRequest resolved;
            bool ok = false;
            {
                ScopedSpan span(&tracer, "serve.parse", i);
                json::Value body;
                serve::Request request;
                ok = json::Value::parse(line, &body) &&
                     serve::parseRequest(body, in.defaults, &request)
                         .ok() &&
                     serve::resolveRequest(request, &resolved).ok();
            }
            if (!ok)
                return;
            std::string key;
            {
                ScopedSpan span(&tracer, "serve.key", i);
                key = serve::cacheKey(resolved, hw);
            }
            ScopedSpan span(&tracer, "cluster.route", i);
            shardLoad[router->shardFor(key)] += 1.0;
        });
        Calibration unused;
        runBacklog(traced, session, tracedS, kRouterChunkS, unused);
    }
    session.close();

    checkPhase(backlog, &outcome);
    if (!options.trace) {
        addServingMetrics(backlog, backlog, setupS, calibration, &outcome);
        return outcome;
    }
    const Phase &traced = *tracedPhase;
    checkPhase(traced, &outcome);

    const double tracedOps = static_cast<double>(traced.sent());
    const double plainPerOpUs =
        backlog.wallS * 1e6 / static_cast<double>(backlog.sent());
    const double tracedPerOpUs = traced.wallS * 1e6 / tracedOps;
    const double coveredUs = tracer.coveredUs();
    addLayerTotals(tracer, tracedOps, &outcome);
    outcome.add("cluster.frame_rtt_ms",
                frameRoundTripMs(traced.line(0), std::string(1024, 'x'),
                                 tracer, 2000),
                "ms");
    const double meanLoad =
        std::accumulate(shardLoad.begin(), shardLoad.end(), 0.0) / kShards;
    outcome.add("cluster.shard_max_over_mean",
                meanLoad > 0.0 ? *std::max_element(shardLoad.begin(),
                                                   shardLoad.end()) /
                                     meanLoad
                               : 0.0,
                "ratio");
    const obs::Counter *shed = registry->findCounter("cluster.shed.count");
    outcome.add("cluster.shed", shed ? static_cast<double>(shed->value()) : 0.0,
                "count");
    const obs::Counter *restarts =
        registry->findCounter("cluster.restart.count");
    outcome.add("cluster.restarts",
                restarts ? static_cast<double>(restarts->value()) : 0.0,
                "count");
    outcome.add("trace.overhead_pct",
                100.0 * (tracedPerOpUs / plainPerOpUs - 1.0), "%");
    outcome.add("trace.covered_pct",
                100.0 * coveredUs / (plainPerOpUs * tracedOps), "%");
    std::ostringstream note;
    note << "traced backlog " << traced.sent() << " requests at "
         << tracedPerOpUs << " us each vs " << plainPerOpUs
         << " us untraced; router stats " << router->statsJson().dump();
    outcome.notes.push_back(note.str());
    return outcome;
}

} // namespace perfbench
