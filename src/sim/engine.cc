#include "sim/engine.hh"

#include <algorithm>
#include <cstring>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/math_utils.hh"
#include "common/memo_table.hh"
#include "obs/metrics.hh"
#include "sim/pipeline_sim.hh"
#include "sim/replay.hh"

namespace gopim::sim {

const std::vector<EngineInfo> &
engineRegistry()
{
    static const std::vector<EngineInfo> registry = {
        {EngineKind::ClosedForm, "closed-form", "closed",
         "Eq. 3-6 recurrence"},
        {EngineKind::EventDriven, "event-driven", "event",
         "discrete-event flow shop"},
        {EngineKind::Replay, "replay", "replay",
         "time the ISA stream header a run lowers to, or a "
         "recorded trace, via the event path"},
    };
    return registry;
}

std::string
engineNameList()
{
    std::string out;
    for (const EngineInfo &info : engineRegistry()) {
        if (!out.empty())
            out += ", ";
        out += info.alias;
    }
    return out;
}

std::string
engineFlagHelp()
{
    std::string out = "timing backend:";
    for (const EngineInfo &info : engineRegistry()) {
        out += " ";
        out += info.alias;
        out += " (";
        out += info.summary;
        out += ")";
    }
    return out;
}

EngineKind
engineKindFromString(const std::string &name)
{
    EngineKind kind;
    if (!tryEngineKindFromString(name, &kind))
        fatal("unknown engine '", name, "' (try ", engineNameList(),
              ")");
    return kind;
}

bool
tryEngineKindFromString(const std::string &name, EngineKind *out)
{
    for (const EngineInfo &info : engineRegistry()) {
        if (name == info.alias || name == info.canonical) {
            *out = info.kind;
            return true;
        }
    }
    return false;
}

std::string
toString(EngineKind kind)
{
    for (const EngineInfo &info : engineRegistry())
        if (info.kind == kind)
            return info.canonical;
    panic("unknown engine kind");
}

double
StageTimeline::avgIdleFraction() const
{
    return mean(idleFraction);
}

pipeline::ScheduleResult
StageTimeline::toScheduleResult() const
{
    pipeline::ScheduleResult result;
    result.makespanNs = makespanNs;
    result.busyNs = busyNs;
    result.idleFraction = idleFraction;
    result.windows = windows;
    return result;
}

namespace {

void
validate(const ScheduleRequest &request)
{
    GOPIM_ASSERT(!request.stageTimesNs.empty(),
                 "schedule request with no stages");
    GOPIM_ASSERT(request.totalMicroBatches >= 1,
                 "need at least one micro-batch");
    GOPIM_ASSERT(request.replicas.empty() ||
                     request.replicas.size() ==
                         request.stageTimesNs.size(),
                 "replica vector size mismatch");
}

/** Batch drain boundaries, mirroring core's IntraBatch chunking. */
std::pair<uint32_t, uint32_t>
batchStructure(const ScheduleRequest &request)
{
    const uint32_t perBatch =
        std::min(std::max(1u, request.microBatchesPerBatch),
                 request.totalMicroBatches);
    const uint32_t batches =
        std::max(1u, request.totalMicroBatches / perBatch);
    return {perBatch, batches};
}

/** Bucket boundaries for simulated durations: 1 us .. ~1000 s. */
std::vector<double>
durationBoundsNs()
{
    return obs::Histogram::exponentialBounds(1e3, 4.0, 15);
}

/**
 * Record one scheduled run into the context's registry (no-op when
 * none is attached). Every value recorded here derives from simulated
 * timing, so counters and histogram contents are identical for any
 * worker count or run interleaving.
 */
void
recordScheduleMetrics(const SimContext &ctx,
                      const ScheduleRequest &request,
                      const StageTimeline &timeline,
                      const std::string &engineTag)
{
    if (!ctx.metrics)
        return;
    obs::MetricsRegistry &m = *ctx.metrics;
    m.counter("sim.schedule.count").add();
    m.counter("sim.schedule." + engineTag + ".count").add();
    m.counter("sim.micro_batches").add(request.totalMicroBatches);
    if (timeline.eventsProcessed > 0)
        m.counter("sim.events_processed")
            .add(timeline.eventsProcessed);
    m.histogram("sim.makespan_ns", durationBoundsNs())
        .observe(timeline.makespanNs);
    auto &busy = m.histogram("sim.stage.busy_ns", durationBoundsNs());
    for (double b : timeline.busyNs)
        busy.observe(b);
    auto &idle =
        m.histogram("sim.stage.idle_fraction",
                    obs::Histogram::linearBounds(0.1, 0.1, 10));
    for (double f : timeline.idleFraction)
        idle.observe(f);
    if (timeline.maxEventQueueDepth > 0)
        m.gauge("sim.event_queue.max_depth")
            .recordMax(
                static_cast<int64_t>(timeline.maxEventQueueDepth));
}

/** Append the raw bytes of a fixed-width value to a memo key. */
template <typename T>
void
packRaw(std::string *out, T v)
{
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    out->append(bytes, sizeof v);
}

/**
 * Byte-exact memo key of one (request, event knobs) pair: every input
 * the event path reads when no RNG is drawn (the seed and the
 * write-retry knobs are left out). Doubles pack as bit patterns
 * (-0.0 and 0.0 key differently on purpose), and vector lengths
 * delimit the variable sections so two requests can never
 * concatenate to the same bytes.
 */
std::string
timelineMemoKey(const ScheduleRequest &request, const SimContext &ctx)
{
    std::string key;
    key.reserve(32 + 8 * request.stageTimesNs.size() +
                4 * request.replicas.size());
    key.push_back(static_cast<char>(request.regime));
    packRaw<uint32_t>(&key, request.totalMicroBatches);
    packRaw<uint32_t>(&key, request.microBatchesPerBatch);
    packRaw<uint32_t>(&key, ctx.event.inputBufferSlots);
    key.push_back(ctx.event.replicasAsServers ? 1 : 0);
    packRaw<uint32_t>(&key, ctx.event.refreshEveryMicroBatches);
    packRaw<double>(&key, ctx.event.refreshStallNs);
    packRaw<uint64_t>(&key, request.stageTimesNs.size());
    for (double t : request.stageTimesNs)
        packRaw<double>(&key, t);
    packRaw<uint64_t>(&key, request.replicas.size());
    for (uint32_t r : request.replicas)
        packRaw<uint32_t>(&key, r);
    return key;
}

} // namespace

StageTimeline
ClosedFormEngine::schedule(const ScheduleRequest &request,
                           const SimContext &ctx) const
{
    validate(request);
    recordStreamIfRequested(request, ctx);
    // Windows are only materialized when the caller will read them
    // (trace sinks, gantt): the summaries come out bit-identical
    // either way and untraced grid runs skip the O(stages x B)
    // window allocation.
    pipeline::ScheduleResult closed;
    switch (request.regime) {
      case Regime::Serial:
        closed = pipeline::scheduleSerial(request.stageTimesNs,
                                          request.totalMicroBatches,
                                          ctx.recordWindows);
        break;
      case Regime::IntraBatch: {
        const auto [perBatch, batches] = batchStructure(request);
        closed = pipeline::scheduleIntraBatchOnly(
            request.stageTimesNs, perBatch, batches,
            ctx.recordWindows);
        break;
      }
      case Regime::IntraInterBatch:
        closed = pipeline::schedulePipelined(
            request.stageTimesNs, request.totalMicroBatches,
            ctx.recordWindows);
        break;
    }

    StageTimeline timeline;
    timeline.makespanNs = closed.makespanNs;
    timeline.busyNs = std::move(closed.busyNs);
    timeline.idleFraction = std::move(closed.idleFraction);
    timeline.windows = std::move(closed.windows);
    timeline.blockedNs.assign(request.stageTimesNs.size(), 0.0);

    // Re-program refreshes drain the pipeline and stall every stage
    // (serialized model); the recurrence itself is untouched, so the
    // zero-refresh path stays bit-identical.
    if (ctx.event.refreshEveryMicroBatches > 0 &&
        ctx.event.refreshStallNs > 0.0) {
        const uint32_t refreshes = request.totalMicroBatches /
                                   ctx.event.refreshEveryMicroBatches;
        if (refreshes > 0) {
            timeline.makespanNs +=
                refreshes * ctx.event.refreshStallNs;
            for (size_t i = 0; i < timeline.idleFraction.size(); ++i)
                timeline.idleFraction[i] = std::clamp(
                    1.0 - timeline.busyNs[i] / timeline.makespanNs,
                    0.0, 1.0);
        }
    }
    recordScheduleMetrics(ctx, request, timeline, "closed_form");
    return timeline;
}

StageTimeline
EventDrivenEngine::schedule(const ScheduleRequest &request,
                            const SimContext &ctx) const
{
    recordStreamIfRequested(request, ctx);
    return scheduleEventPath(request, ctx, "event_driven");
}

StageTimeline
scheduleEventPath(const ScheduleRequest &request,
                  const SimContext &ctx,
                  const std::string &metricsTag)
{
    validate(request);
    const size_t numStages = request.stageTimesNs.size();

    // The timeline is a pure function of (request, event knobs) when
    // nothing samples the RNG — write-verify retry is the only
    // stochastic knob — and no per-run windows are requested. Only
    // then may the memo answer; a hit is the exact timeline the
    // simulation below would produce.
    const bool memoizable = ctx.timelineCache && !ctx.recordWindows &&
                            ctx.event.writeRetryProb == 0.0;
    std::string memoKey;
    uint64_t memoFingerprint = 0;
    if (memoizable) {
        memoKey = timelineMemoKey(request, ctx);
        memoFingerprint = fnv1a64(memoKey);
        if (const auto cached =
                ctx.timelineCache->lookup(memoFingerprint, memoKey)) {
            StageTimeline timeline = *cached;
            recordScheduleMetrics(ctx, request, timeline, metricsTag);
            return timeline;
        }
    }

    std::vector<StationConfig> stations(numStages);
    for (size_t i = 0; i < numStages; ++i) {
        stations[i].serviceTimeNs = request.stageTimesNs[i];
        stations[i].inputBuffer = ctx.event.inputBufferSlots;
        if (ctx.event.replicasAsServers && !request.replicas.empty())
            stations[i].servers = std::max(1u, request.replicas[i]);
    }

    ServiceSampler sampler;
    if (ctx.event.writeRetryProb > 0.0)
        sampler = makeWriteRetrySampler(stations,
                                        ctx.event.writeRetryProb,
                                        ctx.event.writeFraction);
    if (ctx.event.refreshEveryMicroBatches > 0 &&
        ctx.event.refreshStallNs > 0.0) {
        // Stretch the refreshing micro-batch at every stage: the
        // whole array is being re-programmed, so no stage can serve
        // it until the refresh completes. Uses the global micro-batch
        // index (the simulator adds the chunk base).
        const ServiceSampler inner = sampler;
        const double stall = ctx.event.refreshStallNs;
        const uint32_t every = ctx.event.refreshEveryMicroBatches;
        sampler = [inner, stations, stall, every](
                      size_t stage, uint32_t mb, Rng &rng) {
            double serviceNs =
                inner ? inner(stage, mb, rng)
                      : stations[stage].serviceTimeNs;
            if ((mb + 1) % every == 0)
                serviceNs += stall;
            return serviceNs;
        };
    }

    // The drain regimes decompose into independent chunks: serial
    // execution is a one-micro-batch pipeline repeated, intra-batch
    // pipelining drains at every weight update. Inter-batch
    // pipelining is a single chunk.
    uint32_t chunkSize = request.totalMicroBatches;
    uint32_t numChunks = 1;
    switch (request.regime) {
      case Regime::Serial:
        chunkSize = 1;
        numChunks = request.totalMicroBatches;
        break;
      case Regime::IntraBatch: {
        const auto [perBatch, batches] = batchStructure(request);
        chunkSize = perBatch;
        numChunks = batches;
        break;
      }
      case Regime::IntraInterBatch:
        break;
    }

    StageTimeline timeline;
    timeline.busyNs.assign(numStages, 0.0);
    timeline.blockedNs.assign(numStages, 0.0);
    if (ctx.recordWindows)
        timeline.windows.assign(
            numStages, std::vector<pipeline::StageWindow>(
                           static_cast<size_t>(chunkSize) * numChunks));

    PipelineSimulator simulator(stations, ctx.recordWindows);
    Rng seedRng = ctx.makeRng();
    double offsetNs = 0.0;
    for (uint32_t chunk = 0; chunk < numChunks; ++chunk) {
        const uint32_t base = chunk * chunkSize;
        const SimResult &sim =
            simulator.run(chunkSize, sampler, base, seedRng.next());
        for (size_t i = 0; i < numStages; ++i) {
            timeline.busyNs[i] += sim.busyNs[i];
            timeline.blockedNs[i] += sim.blockedNs[i];
        }
        if (ctx.recordWindows) {
            for (size_t i = 0; i < numStages; ++i) {
                for (uint32_t j = 0; j < chunkSize; ++j) {
                    auto &dst = timeline.windows[i][base + j];
                    dst.startNs =
                        sim.windows[i][j].startNs + offsetNs;
                    dst.endNs = sim.windows[i][j].endNs + offsetNs;
                }
            }
        }
        timeline.eventsProcessed += sim.eventsProcessed;
        timeline.maxEventQueueDepth = std::max(
            timeline.maxEventQueueDepth, sim.maxEventQueueDepth);
        offsetNs += sim.makespanNs;
    }
    timeline.makespanNs = offsetNs;

    timeline.idleFraction.resize(numStages);
    for (size_t i = 0; i < numStages; ++i) {
        timeline.idleFraction[i] =
            timeline.makespanNs > 0.0
                ? std::clamp(1.0 - timeline.busyNs[i] /
                                       timeline.makespanNs,
                             0.0, 1.0)
                : 0.0;
    }
    if (memoizable)
        ctx.timelineCache->insert(memoFingerprint,
                                  std::move(memoKey), timeline);
    recordScheduleMetrics(ctx, request, timeline, metricsTag);
    return timeline;
}

const ScheduleEngine &
engineFor(EngineKind kind)
{
    static const ClosedFormEngine closedForm;
    static const EventDrivenEngine eventDriven;
    static const ReplayEngine replay;
    switch (kind) {
      case EngineKind::ClosedForm:
        return closedForm;
      case EngineKind::EventDriven:
        return eventDriven;
      case EngineKind::Replay:
        return replay;
    }
    panic("unknown engine kind");
}

const ScheduleEngine &
resolveEngine(const SimContext &ctx)
{
    if (ctx.engineOverride)
        return *ctx.engineOverride;
    return engineFor(ctx.engine);
}

} // namespace gopim::sim
