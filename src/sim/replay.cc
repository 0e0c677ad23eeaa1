#include "sim/replay.hh"

#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/memo_table.hh"
#include "isa/lower.hh"
#include "isa/verify.hh"

namespace gopim::sim {

namespace {

isa::Regime
toIsaRegime(Regime regime)
{
    switch (regime) {
      case Regime::Serial:
        return isa::Regime::Serial;
      case Regime::IntraBatch:
        return isa::Regime::IntraBatch;
      case Regime::IntraInterBatch:
        return isa::Regime::IntraInterBatch;
    }
    panic("unknown regime");
}

Regime
fromIsaRegime(isa::Regime regime)
{
    switch (regime) {
      case isa::Regime::Serial:
        return Regime::Serial;
      case isa::Regime::IntraBatch:
        return Regime::IntraBatch;
      case isa::Regime::IntraInterBatch:
        return Regime::IntraInterBatch;
    }
    panic("unknown regime");
}

/**
 * Key of `desc` in the LowerMemo: timelineMemoKey's packing of the
 * desc's schedule and knobs plus the write-retry knobs it leaves out.
 * The seed is not packed, so every seed of a schedule shares a key.
 */
std::string
lowerMemoKey(const isa::ScheduleDesc &desc)
{
    SimContext knobs;
    applyDescKnobs(desc, &knobs);
    std::string key = timelineMemoKey(requestFromDesc(desc), knobs);
    for (const double p : {desc.writeRetryProb, desc.writeFraction})
        key.append(reinterpret_cast<const char *>(&p), sizeof p);
    return key;
}

} // namespace

isa::ScheduleDesc
descFromRequest(const ScheduleRequest &request, const SimContext &ctx)
{
    isa::ScheduleDesc desc;
    desc.stageTimesNs = request.stageTimesNs;
    desc.replicas = request.replicas;
    desc.regime = toIsaRegime(request.regime);
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

ScheduleRequest
requestFromDesc(const isa::ScheduleDesc &desc)
{
    ScheduleRequest request;
    request.stageTimesNs = desc.stageTimesNs;
    request.replicas = desc.replicas;
    request.regime = fromIsaRegime(desc.regime);
    request.totalMicroBatches = desc.totalMicroBatches;
    request.microBatchesPerBatch = desc.microBatchesPerBatch;
    return request;
}

void
applyDescKnobs(const isa::ScheduleDesc &desc, SimContext *ctx)
{
    ctx->seed = desc.seed;
    ctx->event.inputBufferSlots = desc.bufferSlots;
    ctx->event.replicasAsServers = desc.replicasAsServers;
    ctx->event.writeRetryProb = desc.writeRetryProb;
    ctx->event.writeFraction = desc.writeFraction;
    ctx->event.refreshEveryMicroBatches =
        desc.refreshEveryMicroBatches;
    ctx->event.refreshStallNs = desc.refreshStallNs;
}

isa::CommandStream
lowerRequest(const ScheduleRequest &request, const SimContext &ctx,
             std::string label)
{
    const isa::ScheduleDesc desc = descFromRequest(request, ctx);
    if (std::string err = desc.validate(); !err.empty())
        fatal("cannot lower schedule request: ", err);
    return isa::lowerSchedule(desc, std::move(label));
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

ReplayEngine::ReplayEngine(isa::TraceBundle bundle)
    : fromTrace_(true), bundle_(std::move(bundle))
{
}

StageTimeline
ReplayEngine::schedule(const ScheduleRequest &request,
                       const SimContext &ctx) const
{
    recordStreamIfRequested(request, ctx);
    if (!fromTrace_) {
        if (ctx.lowerCache) {
            const isa::ScheduleDesc desc =
                descFromRequest(request, ctx);
            const std::string key = lowerMemoKey(desc);
            const uint64_t fingerprint = fnv1a64(key);
            if (ctx.lowerCache->lookup(fingerprint, key)) {
                // This schedule (seed aside) already survived one
                // lower + validate round-trip; replay straight from
                // the desc. The stream would have carried this exact
                // desc, so the timeline is bit-identical.
                SimContext replayCtx = ctx;
                applyDescKnobs(desc, &replayCtx);
                return scheduleEventPath(requestFromDesc(desc),
                                         replayCtx, "replay");
            }
            const isa::CommandStream stream =
                lowerRequest(request, ctx, ctx.isaStreamLabel);
            const StageTimeline timeline = replayStream(stream, ctx);
            ctx.lowerCache->insert(fingerprint, key, true);
            return timeline;
        }
        return replayStream(
            lowerRequest(request, ctx, ctx.isaStreamLabel), ctx);
    }

    const uint64_t fingerprint =
        descFromRequest(request, ctx).fingerprint();
    const isa::CommandStream *stream = bundle_.find(fingerprint);
    if (!stream)
        fatal("the loaded ISA trace has no stream for this run "
              "(desc fingerprint ",
              hexDigest64(fingerprint),
              "); record one with --isa-trace-out under the same "
              "engine knobs and seed");
    // Loaded traces come from outside the process; reject malformed
    // control flow with the semantic verifier's taxonomy before the
    // (stricter) canonical-lowering check in replayStream, so a
    // corrupted trace dies with a flow diagnostic, not an opaque
    // canonical-mismatch one.
    if (std::string err = isa::verifySummary(*stream); !err.empty())
        fatal("loaded ISA trace stream fails semantic "
              "verification: ",
              err);
    return replayStream(*stream, ctx);
}

StageTimeline
ReplayEngine::replayStream(const isa::CommandStream &stream,
                           const SimContext &ctx) const
{
    if (std::string err = isa::validateStream(stream); !err.empty())
        fatal("refusing to replay an invalid command stream: ", err);
    SimContext replayCtx = ctx;
    applyDescKnobs(stream.desc, &replayCtx);
    return scheduleEventPath(requestFromDesc(stream.desc), replayCtx,
                             "replay");
}

} // namespace gopim::sim
