#include "sim/replay.hh"

#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"
#include "isa/verify.hh"

namespace gopim::sim {

ReplayEngine::ReplayEngine(isa::TraceBundle bundle)
    : fromTrace_(true), bundle_(std::move(bundle))
{
}

StageTimeline
ReplayEngine::schedule(const ScheduleRequest &request,
                       const SimContext &ctx) const
{
    recordStreamIfRequested(request, ctx);
    // Self-replay times the stream header directly: the stream
    // lowerSchedule would build carries this exact desc, and timing
    // reads nothing else of a stream.
    const isa::ScheduleDesc desc = descFromRequest(request, ctx);
    if (!fromTrace_)
        return scheduleEventPath(desc, ctx, "replay");

    const uint64_t fingerprint = desc.fingerprint();
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
    return scheduleEventPath(stream.desc, ctx, "replay");
}

} // namespace gopim::sim
