/**
 * @file
 * Per-run simulation context threaded from the entry points
 * (tools/benches) through core::SystemConfig into the scheduling
 * engines: which timing backend to use, the seed driving stochastic
 * service times, the event-engine knobs the closed form cannot
 * express, and an optional trace sink for observability.
 *
 * A SimContext is a value: copying it into each run keeps the
 * per-run path stateless, which is what lets the comparison harness
 * execute grid cells on a thread pool.
 */

#ifndef GOPIM_SIM_CONTEXT_HH
#define GOPIM_SIM_CONTEXT_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace gopim {
template <typename V>
class MemoTable;
} // namespace gopim

namespace gopim::obs {
class MetricsRegistry;
} // namespace gopim::obs

namespace gopim::isa {
class StreamRecorder;
} // namespace gopim::isa

namespace gopim::sim {

class ScheduleEngine;
struct StageTimeline;
class TraceSink;

/** Event-path timelines keyed by everything the simulator reads. */
using TimelineMemo = MemoTable<StageTimeline>;

/**
 * Schedules the replay engine's self-replay mode has already lowered
 * and validated, keyed by the packed seed-zeroed desc (sim/replay.hh).
 * Presence is the whole record; the stored flag is never read.
 */
using LowerMemo = MemoTable<bool>;

/** Timing backend selector. */
enum class EngineKind
{
    ClosedForm,  ///< Eq. 3-6 recurrence (pipeline/schedule)
    EventDriven, ///< discrete-event flow shop (sim/pipeline_sim)
    Replay,      ///< times an isa:: command stream (sim/replay)
};

/**
 * One registered timing backend: the single source of truth for its
 * spellings and one-line summary. Flag help, serve-layer hints, and
 * parse errors all derive from this table so a new engine cannot
 * drift out of any of them.
 */
struct EngineInfo
{
    EngineKind kind;
    /** Canonical name, as ScheduleEngine::name() reports it. */
    const char *canonical;
    /** Short spelling accepted by --engine and serve requests. */
    const char *alias;
    /** One-line description for flag help. */
    const char *summary;
};

/** All registered engines, in EngineKind declaration order. */
const std::vector<EngineInfo> &engineRegistry();

/** Comma-separated alias list ("closed, event, replay") for hints. */
std::string engineNameList();

/** Multi-line --engine help text derived from the registry. */
std::string engineFlagHelp();

/** Parse an alias or canonical name (--engine); fatal() otherwise. */
EngineKind engineKindFromString(const std::string &name);

/** Non-fatal parse; returns false on unknown names. */
bool tryEngineKindFromString(const std::string &name, EngineKind *out);

std::string toString(EngineKind kind);

/**
 * Behaviors only the event-driven engine models. Defaults reproduce
 * the closed form exactly (unbounded buffers, one server per stage,
 * deterministic service), which the parity tests rely on.
 */
struct EventKnobs
{
    /** Input-buffer slots in front of every stage. */
    uint32_t inputBufferSlots = std::numeric_limits<uint32_t>::max();
    /**
     * Treat each stage's replica count as independent servers
     * (replica groups working on distinct micro-batches) instead of
     * folding replication into the per-micro-batch service time.
     */
    bool replicasAsServers = false;
    /** Probability a write-verify attempt fails and repeats. */
    double writeRetryProb = 0.0;
    /** Fraction of a stage's service time attributable to writes. */
    double writeFraction = 0.0;
    /**
     * Re-program refresh cadence in micro-batches (0 = never). Set
     * by the fault subsystem's refresh repair policy; both engines
     * honor it: the closed form adds the stalls to the makespan
     * (serialized drain model), the event engine stretches the
     * refreshing micro-batch's service at every stage.
     */
    uint32_t refreshEveryMicroBatches = 0;
    /** Pipeline stall per refresh event (ns). */
    double refreshStallNs = 0.0;
};

/** Everything a run needs to pick and drive a timing backend. */
struct SimContext
{
    EngineKind engine = EngineKind::ClosedForm;
    /**
     * Custom backend plugged in by the caller; when set it wins over
     * `engine`. Must be immutable/thread-safe (shared across runs).
     */
    std::shared_ptr<const ScheduleEngine> engineOverride;
    /** Seed for stochastic service-time sampling (event engine). */
    uint64_t seed = 1;
    EventKnobs event;
    /** Record per-(stage, micro-batch) windows in the timeline. */
    bool recordWindows = false;
    /** Optional observer fed the timeline of every scheduled run. */
    std::shared_ptr<TraceSink> traceSink;
    /**
     * Optional metrics registry; when set, engines and the layers
     * above record counters/histograms into it. Recording never
     * alters simulated timing — outputs are bit-identical with or
     * without a registry (pinned by tests/test_obs.cc).
     */
    std::shared_ptr<obs::MetricsRegistry> metrics;
    /**
     * Optional command-stream collector (--isa-trace-out): every
     * engine lowers the requests it schedules into isa:: command
     * streams and records them here. Recording never alters
     * simulated timing.
     */
    std::shared_ptr<isa::StreamRecorder> isaRecorder;
    /** Label recorded streams carry ("GoPIM on Cora"). */
    std::string isaStreamLabel;
    /**
     * Optional memo the replay engine's self-replay mode uses to
     * skip re-lowering/re-validating schedules it has already
     * round-tripped (sim/replay.hh). Internally locked; sharing one
     * cache across runs and threads is safe. Timing is unaffected —
     * a cache hit replays the exact desc the lowered stream would
     * have carried, so results stay bit-identical.
     */
    std::shared_ptr<LowerMemo> lowerCache;
    /**
     * Optional memo for the event path (scheduleEventPath): when a
     * schedule's timeline is seed-independent (no write-retry
     * sampling) and carries no per-run windows, scheduleEventPath
     * returns the memoized timeline instead of re-simulating. The
     * key packs every input the simulator reads, so hits are
     * bit-identical by construction. Internally locked.
     */
    std::shared_ptr<TimelineMemo> timelineCache;

    /** Fresh deterministic generator for one run. */
    Rng makeRng() const { return Rng(seed); }
};

} // namespace gopim::sim

#endif // GOPIM_SIM_CONTEXT_HH
