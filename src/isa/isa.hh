/**
 * @file
 * The PIM instruction set: an explicit command-stream boundary
 * between "what a schedule executes" and "how a backend times it"
 * (the PIMSIM-NN-style compiler/timing-model split, ROADMAP item 2).
 *
 * A CommandStream is a deterministic program over crossbar stages:
 * per-stage configuration (`CFG_STAGE`), per-micro-batch compute and
 * write work (`MVM`, `ROW_WRITE`), inter-stage handoffs (`NOC_SEND`/
 * `NOC_RECV`), fault-repair refresh stalls (`REFRESH`), pipeline
 * drain boundaries (`BARRIER`), and an end-of-stream `SYNC` marker.
 * The stream header (ScheduleDesc) carries everything the timing
 * backend needs bit-exactly — stage service times as IEEE-754 bit
 * patterns, the pipelining regime, seeds, and the event-engine
 * knobs — so a replayed stream times identically to a live run
 * (sim::ReplayEngine holds that contract).
 *
 * Streams are produced by lowering a pipeline schedule (lower.hh),
 * by the StreamBuilder generator API (tests and non-GCN workloads),
 * or by reading a binary trace (trace_io.hh).
 */

#ifndef GOPIM_ISA_ISA_HH
#define GOPIM_ISA_ISA_HH

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/schedule.hh"

namespace gopim::isa {

/** Operation kinds of the PIM command stream. */
enum class Opcode : uint8_t
{
    CfgStage = 1, ///< declare one stage: replicas + base service time
    Mvm = 2,      ///< crossbar MVM work of one (stage, micro-batch)
    RowWrite = 3, ///< write-verify portion (nominal single attempt)
    NocSend = 4,  ///< handoff from `stage` toward `stage + 1`
    NocRecv = 5,  ///< arrival at `stage` from `stage - 1`
    Refresh = 6,  ///< fault-repair re-program stall at this point
    Barrier = 7,  ///< pipeline drain boundary (operand = chunk index)
    Sync = 8,     ///< end of stream (operand = prior command count)
};

/** Canonical mnemonic ("MVM", "ROW_WRITE", ...). */
const char *toString(Opcode op);

/** Is `raw` a defined opcode byte? */
bool opcodeKnown(uint8_t raw);

/**
 * One decoded instruction. Durations travel as IEEE-754 bit patterns
 * so encode/decode round trips are bit-exact — the replay engine's
 * bit-identity guarantee depends on it.
 */
struct Command
{
    Opcode op = Opcode::Sync;
    uint32_t stage = 0;
    /** Micro-batch operand; Barrier stores the chunk index here. */
    uint32_t microBatch = 0;
    /** CfgStage: replica count. Sync: preceding command count. */
    uint64_t operand = 0;
    /** Bit pattern of the ns payload (0 for untimed ops). */
    uint64_t durationBits = 0;

    double durationNs() const;
    static uint64_t bitsOf(double ns);

    bool operator==(const Command &) const = default;
};

/**
 * The stream header: a backend-independent description of one
 * scheduling problem, carrying exactly the fields that determine
 * event-path timing. Two descs with equal fingerprint() produce
 * bit-identical replays — the trace lookup key and the lowering /
 * replay round-trip contract both rest on that.
 */
struct ScheduleDesc
{
    /** Post-replication service time of each stage (ns/micro-batch). */
    std::vector<double> stageTimesNs;
    /** Replica count per stage (normalized to stage count by
     *  normalize(); all-ones when the producer had none). */
    std::vector<uint32_t> replicas;
    pipeline::Regime regime = pipeline::Regime::IntraInterBatch;
    uint32_t totalMicroBatches = 1;
    /** Drain boundary for IntraBatch (micro-batches/batch). */
    uint32_t microBatchesPerBatch = 0;
    /** Seed driving stochastic service-time sampling at replay. */
    uint64_t seed = 1;
    /** Input-buffer slots in front of every stage. */
    uint32_t bufferSlots = std::numeric_limits<uint32_t>::max();
    /** Replica groups serve distinct micro-batches (multi-server). */
    bool replicasAsServers = false;
    /** Probability a write-verify attempt fails and repeats. */
    double writeRetryProb = 0.0;
    /** Fraction of a stage's service time attributable to writes. */
    double writeFraction = 0.0;
    /** Re-program refresh cadence in micro-batches (0 = never). */
    uint32_t refreshEveryMicroBatches = 0;
    /** Pipeline stall per refresh event (ns). */
    double refreshStallNs = 0.0;

    /** Fill `replicas` with ones when empty (producer had none). */
    void normalize();

    /** Refresh stalls are executed only when both knobs are live. */
    bool refreshActive() const
    {
        return refreshEveryMicroBatches > 0 && refreshStallNs > 0.0;
    }

    /** pipeline::chunkStructure of this desc's regime and batches. */
    std::pair<uint32_t, uint32_t> chunkStructure() const
    {
        return pipeline::chunkStructure(regime, totalMicroBatches,
                                        microBatchesPerBatch);
    }

    /**
     * Canonical byte serialization of every field above: doubles as
     * bit patterns, the stage count first, and empty replicas
     * spelled as ones. Equal bytes mean equal event-path timing.
     */
    std::string canonicalBytes() const;

    /** FNV-1a of canonicalBytes(). The trace lookup key. */
    uint64_t fingerprint() const;

    /** "" when well-formed, else a diagnostic. */
    std::string validate() const;

    bool operator==(const ScheduleDesc &) const = default;
};

/** A lowered program: header + deterministic instruction sequence. */
struct CommandStream
{
    /** Free-text producer label ("GoPIM on Cora"); not fingerprinted. */
    std::string label;
    ScheduleDesc desc;
    std::vector<Command> commands;

    uint64_t fingerprint() const { return desc.fingerprint(); }

    bool operator==(const CommandStream &) const = default;
};

/**
 * Structural validation: the desc is well-formed and the command
 * sequence is exactly the deterministic lowering of the desc
 * (CfgStage prologue, per-chunk Barrier + unrolled micro-batch ops
 * with bit-exact durations, trailing Sync). Returns "" when valid,
 * else a diagnostic naming the first offending command.
 */
std::string validateStream(const CommandStream &stream);

/**
 * Nominal per-(stage, micro-batch) service times encoded in the
 * stream's ops (MVM + ROW_WRITE + REFRESH; single write attempt),
 * stage-major over the executed micro-batches (chunkSize x
 * numChunks). The stochastic retry spread at replay is not included.
 */
std::vector<std::vector<double>> nominalServiceNs(
    const CommandStream &stream);

/** Closed-form preview of a stream's timing (gopim_trace summary). */
struct NominalTiming
{
    double makespanNs = 0.0;
    std::vector<double> busyNs;
};

/**
 * Time the stream's nominal ops through the pipeline flow-shop
 * recurrence, chunk by chunk. For streams with default knobs
 * (unbounded buffers, single servers, no retries) this equals the
 * event-path replay exactly.
 */
NominalTiming nominalTiming(const CommandStream &stream);

/** Per-opcode command counts ([toString(op)] ordering). */
std::vector<std::pair<std::string, uint64_t>> opcodeHistogram(
    const CommandStream &stream);

/**
 * Generator API: emit command streams without a GCN schedule (the
 * DRAMsim3-style trace front-end for tests and non-GCN workloads).
 * Configure the desc fluently, then build() lowers it into a
 * validated stream.
 */
class StreamBuilder
{
  public:
    explicit StreamBuilder(std::string label = "");

    StreamBuilder &regime(pipeline::Regime regime);
    StreamBuilder &microBatches(uint32_t total, uint32_t perBatch = 0);
    StreamBuilder &seed(uint64_t seed);
    StreamBuilder &bufferSlots(uint32_t slots);
    StreamBuilder &replicasAsServers(bool on);
    StreamBuilder &writeRetry(double prob, double fraction);
    StreamBuilder &refresh(uint32_t everyMicroBatches, double stallNs);
    /** Append one stage (pipeline order). */
    StreamBuilder &stage(double serviceTimeNs, uint32_t replicas = 1);

    const ScheduleDesc &desc() const { return desc_; }

    /** Lower the accumulated desc; panics on an invalid desc. */
    CommandStream build() const;

  private:
    std::string label_;
    ScheduleDesc desc_;
};

} // namespace gopim::isa

#endif // GOPIM_ISA_ISA_HH
