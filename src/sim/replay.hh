/**
 * @file
 * ReplayEngine: the stream-consumption path of the scheduling stack.
 *
 * A replayed run is timed by reconstructing the scheduling problem
 * from an isa::CommandStream header and pushing it through the same
 * scheduleEventPath() the live event engine uses — same chunk
 * decomposition, same retry/refresh samplers, same seeded Rng draw
 * order — so the resulting StageTimeline is bit-identical to a live
 * event-driven run of the same request (tests/test_isa.cc pins this
 * for every seed system and fault configuration, through a trace
 * written to disk and read back).
 *
 * Two modes:
 *  - default-constructed (the registry instance behind
 *    --engine=replay): lowers each incoming request on the fly and
 *    replays the stream — a structural self-check that exercises
 *    lowering + validation on every run. With a SimContext::lowerCache
 *    attached (the memoized harness does), a schedule that already
 *    passed lowering + validation under any seed replays straight
 *    from its desc: lowering is seed-independent (the seed only rides
 *    in the stream header), and the stream stores that same desc
 *    verbatim, so the timeline is bit-identical;
 *  - constructed from a TraceBundle (--isa-trace-in): looks the
 *    request up by desc fingerprint and replays the recorded stream;
 *    a request the trace does not cover is a fatal user error.
 *
 * The request→desc / desc→request adapters live here too, as does
 * the recording hook every engine calls for --isa-trace-out.
 */

#ifndef GOPIM_SIM_REPLAY_HH
#define GOPIM_SIM_REPLAY_HH

#include <string>

#include "isa/trace_io.hh"
#include "sim/engine.hh"

namespace gopim::sim {

/** Snapshot a request + context knobs as a stream header. */
isa::ScheduleDesc descFromRequest(const ScheduleRequest &request,
                                  const SimContext &ctx);

/** Rebuild the scheduling problem a stream header describes. */
ScheduleRequest requestFromDesc(const isa::ScheduleDesc &desc);

/**
 * Overwrite `ctx`'s seed and event knobs with the desc's so the
 * event path reproduces the recorded run exactly; observation fields
 * (recordWindows, metrics, trace sinks) are left untouched.
 */
void applyDescKnobs(const isa::ScheduleDesc &desc, SimContext *ctx);

/** Lower a request under `ctx`'s knobs into a command stream. */
isa::CommandStream lowerRequest(const ScheduleRequest &request,
                                const SimContext &ctx,
                                std::string label = "");

/** Times isa:: command streams via the shared event path. */
class ReplayEngine final : public ScheduleEngine
{
  public:
    /** Self-replay mode: lower each request on the fly. */
    ReplayEngine() = default;

    /** Trace mode: replay recorded streams, looked up by desc
     *  fingerprint; unmatched requests are fatal. */
    explicit ReplayEngine(isa::TraceBundle bundle);

    std::string name() const override { return "replay"; }

    StageTimeline schedule(const ScheduleRequest &request,
                           const SimContext &ctx) const override;

    /**
     * Time one validated stream directly (the engine-independent
     * entry point tools and non-GCN front-ends use). An invalid
     * stream is a fatal user error.
     */
    StageTimeline replayStream(const isa::CommandStream &stream,
                               const SimContext &ctx) const;

  private:
    bool fromTrace_ = false;
    isa::TraceBundle bundle_;
};

} // namespace gopim::sim

#endif // GOPIM_SIM_REPLAY_HH
