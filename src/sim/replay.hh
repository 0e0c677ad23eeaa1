/**
 * @file
 * ReplayEngine: the stream-consumption path of the scheduling stack.
 *
 * A replayed run is timed by passing an isa::CommandStream header to
 * the same scheduleEventPath() the live event engine uses — same chunk
 * decomposition, same retry/refresh samplers, same seeded Rng draw
 * order — so the resulting StageTimeline is bit-identical to a live
 * event-driven run of the same request (tests/test_isa.cc pins this
 * for every seed system and fault configuration, through a trace
 * written to disk and read back).
 *
 * Two modes:
 *  - default-constructed (the registry instance behind
 *    --engine=replay without a trace, and serve's "replay" engine):
 *    self-replay. It times the stream header (descFromRequest) each
 *    incoming request would lower to, exactly as the event engine
 *    does, so no command stream is built unless --isa-trace-out
 *    records one;
 *  - constructed from a TraceBundle (--isa-trace-in): looks the
 *    request up by desc fingerprint, checks the recorded stream (flow
 *    verifier, then canonical lowering) and times its header; a
 *    request the trace does not cover is a fatal user error. Streams
 *    are checked here because their bytes come from outside the
 *    process.
 */

#ifndef GOPIM_SIM_REPLAY_HH
#define GOPIM_SIM_REPLAY_HH

#include <string>

#include "isa/trace_io.hh"
#include "sim/engine.hh"

namespace gopim::sim {

/** Times isa:: command streams via the shared event path. */
class ReplayEngine final : public ScheduleEngine
{
  public:
    /** Self-replay mode: time each request's stream header. */
    ReplayEngine() = default;

    /** Trace mode: replay recorded streams, looked up by desc
     *  fingerprint; unmatched requests are fatal. */
    explicit ReplayEngine(isa::TraceBundle bundle);

    std::string name() const override { return "replay"; }

    StageTimeline schedule(const ScheduleRequest &request,
                           const SimContext &ctx) const override;

    /**
     * Check one stream against its canonical lowering and time it
     * (trace mode's entry point, also driven by tests). An invalid
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
