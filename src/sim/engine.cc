#include "sim/engine.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/math_utils.hh"
#include "common/memo_table.hh"
#include "isa/lower.hh"
#include "isa/trace_io.hh"
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
recordScheduleMetrics(const SimContext &ctx, uint32_t totalMicroBatches,
                      const StageTimeline &timeline,
                      const std::string &engineTag)
{
    if (!ctx.metrics)
        return;
    obs::MetricsRegistry &m = *ctx.metrics;
    m.counter("sim.schedule.count").add();
    m.counter("sim.schedule." + engineTag + ".count").add();
    m.counter("sim.micro_batches").add(totalMicroBatches);
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

/** The desc, fatal() with validate()'s diagnostic when invalid. */
const isa::ScheduleDesc &
checkedDesc(const isa::ScheduleDesc &desc)
{
    if (std::string err = desc.validate(); !err.empty())
        fatal("invalid schedule desc: ", err);
    return desc;
}

/**
 * Timeline-memo key: the desc's canonical bytes without the inputs
 * the event path reads only to sample write retries (the seed and
 * the write fraction). Callers memoize only retry-free descs.
 */
std::string
timingKey(isa::ScheduleDesc desc)
{
    desc.seed = 0;
    desc.writeFraction = 0.0;
    return desc.canonicalBytes();
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
      case pipeline::Regime::Serial:
        closed = pipeline::scheduleSerial(request.stageTimesNs,
                                          request.totalMicroBatches,
                                          ctx.recordWindows);
        break;
      case pipeline::Regime::IntraBatch: {
        const auto [perBatch, batches] = pipeline::chunkStructure(
            request.regime, request.totalMicroBatches,
            request.microBatchesPerBatch);
        closed = pipeline::scheduleIntraBatchOnly(
            request.stageTimesNs, perBatch, batches,
            ctx.recordWindows);
        break;
      }
      case pipeline::Regime::IntraInterBatch:
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
    recordScheduleMetrics(ctx, request.totalMicroBatches, timeline,
                          "closed_form");
    return timeline;
}

StageTimeline
EventDrivenEngine::schedule(const ScheduleRequest &request,
                            const SimContext &ctx) const
{
    recordStreamIfRequested(request, ctx);
    return scheduleEventPath(descFromRequest(request, ctx), ctx,
                             "event_driven");
}

isa::ScheduleDesc
descFromRequest(const ScheduleRequest &request, const SimContext &ctx)
{
    isa::ScheduleDesc desc;
    desc.stageTimesNs = request.stageTimesNs;
    desc.replicas = request.replicas;
    desc.regime = request.regime;
    desc.totalMicroBatches = request.totalMicroBatches;
    desc.microBatchesPerBatch = request.microBatchesPerBatch;
    desc.seed = ctx.seed;
    desc.bufferSlots = ctx.event.inputBufferSlots;
    desc.replicasAsServers = ctx.event.replicasAsServers;
    desc.writeRetryProb = ctx.event.writeRetryProb;
    desc.writeFraction = ctx.event.writeFraction;
    desc.refreshEveryMicroBatches = ctx.event.refreshEveryMicroBatches;
    desc.refreshStallNs = ctx.event.refreshStallNs;
    desc.normalize();
    return desc;
}

StageTimeline
scheduleEventPath(const isa::ScheduleDesc &desc, const SimContext &ctx,
                  const std::string &metricsTag)
{
    checkedDesc(desc);
    const size_t numStages = desc.stageTimesNs.size();

    // The timeline is a pure function of the desc's timing fields
    // when nothing samples the RNG — write-verify retry is the only
    // stochastic knob — and no per-run windows are requested. Only
    // then may the memo answer; a hit is the exact timeline the
    // simulation below would produce.
    const bool memoizable = ctx.timelineCache && !ctx.recordWindows &&
                            desc.writeRetryProb == 0.0;
    std::string memoKey;
    uint64_t memoFingerprint = 0;
    if (memoizable) {
        memoKey = timingKey(desc);
        memoFingerprint = fnv1a64(memoKey);
        if (const auto cached =
                ctx.timelineCache->lookup(memoFingerprint, memoKey)) {
            StageTimeline timeline = *cached;
            recordScheduleMetrics(ctx, desc.totalMicroBatches, timeline,
                                  metricsTag);
            return timeline;
        }
    }

    std::vector<StationConfig> stations(numStages);
    for (size_t i = 0; i < numStages; ++i) {
        stations[i].serviceTimeNs = desc.stageTimesNs[i];
        stations[i].inputBuffer = desc.bufferSlots;
        if (desc.replicasAsServers && !desc.replicas.empty())
            stations[i].servers = desc.replicas[i];
    }

    ServiceSampler sampler;
    if (desc.writeRetryProb > 0.0)
        sampler = makeWriteRetrySampler(stations, desc.writeRetryProb,
                                        desc.writeFraction);
    if (desc.refreshActive()) {
        // Stretch the refreshing micro-batch at every stage: the
        // whole array is being re-programmed, so no stage can serve
        // it until the refresh completes. Uses the global micro-batch
        // index (the simulator adds the chunk base).
        const ServiceSampler inner = sampler;
        const double stall = desc.refreshStallNs;
        const uint32_t every = desc.refreshEveryMicroBatches;
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
    const auto [chunkSize, numChunks] = desc.chunkStructure();

    StageTimeline timeline;
    timeline.busyNs.assign(numStages, 0.0);
    timeline.blockedNs.assign(numStages, 0.0);
    if (ctx.recordWindows)
        timeline.windows.assign(
            numStages, std::vector<pipeline::StageWindow>(
                           static_cast<size_t>(chunkSize) * numChunks));

    PipelineSimulator simulator(stations, ctx.recordWindows);
    Rng seedRng(desc.seed);
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
    recordScheduleMetrics(ctx, desc.totalMicroBatches, timeline,
                          metricsTag);
    return timeline;
}

isa::CommandStream
lowerRequest(const ScheduleRequest &request, const SimContext &ctx,
             std::string label)
{
    return isa::lowerSchedule(checkedDesc(descFromRequest(request, ctx)),
                              std::move(label));
}

void
recordStreamIfRequested(const ScheduleRequest &request,
                        const SimContext &ctx)
{
    if (!ctx.isaRecorder)
        return;
    ctx.isaRecorder->record(
        lowerRequest(request, ctx, ctx.isaStreamLabel));
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
