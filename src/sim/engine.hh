/**
 * @file
 * Pluggable scheduling engines: one interface, three timing backends.
 *
 * The engines separate "what to run" (a ScheduleRequest: post-
 * replication stage times, micro-batch structure, pipelining regime)
 * from "how to time it":
 *
 *  - ClosedFormEngine evaluates the paper's Eq. 3-6 recurrences
 *    (pipeline/schedule.hh) — exact, deterministic, O(stages x
 *    micro-batches);
 *  - EventDrivenEngine executes the flow shop event by event
 *    (sim/pipeline_sim.hh) and can additionally model bounded
 *    inter-stage buffers, multi-server replica groups, and ReRAM
 *    write-verify retry stochasticity via the SimContext knobs;
 *  - sim::ReplayEngine (sim/replay.hh) times an isa:: command
 *    stream — lowered on the fly or read back from a binary trace —
 *    through the same event path, bit-identically.
 *
 * All return the same StageTimeline, so core::Accelerator, the
 * comparison harness, every bench, and the trace sink are agnostic
 * to the backend. With default knobs the engines agree exactly
 * (tests/test_engine.cc asserts parity across all systems). The
 * registered backends and their spellings live in the engine
 * registry (sim/context.hh) — flag help and serve hints derive from
 * it rather than hard-coding names.
 */

#ifndef GOPIM_SIM_ENGINE_HH
#define GOPIM_SIM_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/schedule.hh"
#include "sim/context.hh"

namespace gopim::sim {

/** Pipelining regime of a scheduling request. */
enum class Regime
{
    Serial,         ///< no overlap at all
    IntraBatch,     ///< pipeline within a batch, drain between
    IntraInterBatch ///< pipeline across batch boundaries too
};

/** One scheduling problem, independent of the timing backend. */
struct ScheduleRequest
{
    /** Post-replication service time of each stage (ns/micro-batch). */
    std::vector<double> stageTimesNs;
    /** Replica count per stage (multi-server event mode). */
    std::vector<uint32_t> replicas;
    Regime regime = Regime::IntraInterBatch;
    /** Total micro-batches across all batches. */
    uint32_t totalMicroBatches = 1;
    /** Drain boundary for Regime::IntraBatch (micro-batches/batch). */
    uint32_t microBatchesPerBatch = 0;
};

/** Backend-agnostic scheduling outcome. */
struct StageTimeline
{
    double makespanNs = 0.0;
    /** Per-stage total service time over the run. */
    std::vector<double> busyNs;
    /** Per-stage time finished work sat blocked by backpressure. */
    std::vector<double> blockedNs;
    /** Idle fraction of each stage: 1 - busy / makespan, in [0,1]. */
    std::vector<double> idleFraction;
    /**
     * Start/end of every (stage, micro-batch) service window,
     * stage-major. Populated by the closed form always and by the
     * event engine when SimContext::recordWindows is set.
     */
    std::vector<std::vector<pipeline::StageWindow>> windows;
    /** Discrete events executed (0 for the closed form). */
    uint64_t eventsProcessed = 0;
    /** Event-queue depth high-water mark (0 for the closed form). */
    uint64_t maxEventQueueDepth = 0;

    double avgIdleFraction() const;
    bool hasWindows() const { return !windows.empty(); }

    /** View as a pipeline::ScheduleResult (Gantt rendering reuse). */
    pipeline::ScheduleResult toScheduleResult() const;
};

/** A timing backend that turns requests into timelines. */
class ScheduleEngine
{
  public:
    virtual ~ScheduleEngine() = default;

    /** Short identifier ("closed-form", "event-driven"). */
    virtual std::string name() const = 0;

    /** Schedule one run under `ctx`'s knobs and seed. */
    virtual StageTimeline schedule(const ScheduleRequest &request,
                                   const SimContext &ctx) const = 0;
};

/** Eq. 3-6 recurrence backend wrapping pipeline/schedule.hh. */
class ClosedFormEngine final : public ScheduleEngine
{
  public:
    std::string name() const override { return "closed-form"; }
    StageTimeline schedule(const ScheduleRequest &request,
                           const SimContext &ctx) const override;
};

/** Discrete-event flow-shop backend on sim::PipelineSimulator. */
class EventDrivenEngine final : public ScheduleEngine
{
  public:
    std::string name() const override { return "event-driven"; }
    StageTimeline schedule(const ScheduleRequest &request,
                           const SimContext &ctx) const override;
};

/** Shared immutable engine instance for a kind (never null). */
const ScheduleEngine &engineFor(EngineKind kind);

/** Context's backend: engineOverride when set, else engineFor(). */
const ScheduleEngine &resolveEngine(const SimContext &ctx);

/**
 * The discrete-event timing path shared by EventDrivenEngine and
 * sim::ReplayEngine: chunk decomposition, retry/refresh samplers,
 * seeded per-chunk simulation. `metricsTag` labels the per-engine
 * counters; the timeline itself is independent of it — one code
 * path is what makes replay bit-identical to a live event run.
 */
StageTimeline scheduleEventPath(const ScheduleRequest &request,
                                const SimContext &ctx,
                                const std::string &metricsTag);

/**
 * Byte-exact memo key of one (request, event knobs) pair: every input
 * the event path reads when no RNG is drawn (the seed and the
 * write-retry knobs are left out). Doubles pack as bit patterns
 * (-0.0 and 0.0 key differently on purpose), and vector lengths
 * delimit the variable sections so two requests can never
 * concatenate to the same bytes.
 */
std::string timelineMemoKey(const ScheduleRequest &request,
                            const SimContext &ctx);

/**
 * Lower `request` under `ctx`'s knobs and record the command stream
 * into ctx.isaRecorder (no-op when none is attached). Every engine
 * calls this on entry so --isa-trace-out captures any run.
 */
void recordStreamIfRequested(const ScheduleRequest &request,
                             const SimContext &ctx);

} // namespace gopim::sim

#endif // GOPIM_SIM_ENGINE_HH
