/**
 * @file
 * Micro-batch pipeline schedule over a linear stage chain.
 *
 * Implements the paper's Eq. (3)-(6): stage i of micro-batch j starts
 * no earlier than stage i-1 of the same micro-batch and stage i of the
 * previous micro-batch. For identical per-micro-batch stage times the
 * exact recurrence collapses to the closed form
 * T_A = sum_i T_i + (B - 1) * max_i T_i, which computeExact() verifies
 * against in the test suite.
 */

#ifndef GOPIM_PIPELINE_SCHEDULE_HH
#define GOPIM_PIPELINE_SCHEDULE_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace gopim::pipeline {

/**
 * Pipelining regime of a schedule: the paper's serial baseline,
 * intra-batch pipelining that drains at every weight update, and
 * GoPIM's intra- plus inter-batch pipelining.
 */
enum class Regime : uint8_t
{
    Serial = 0,         ///< no overlap at all
    IntraBatch = 1,     ///< pipeline within a batch, drain between
    IntraInterBatch = 2 ///< pipeline across batch boundaries too
};

// GPIS v1 trace headers and the cache key's `pipeline_mode` store
// these values; renumbering would change both.
static_assert(static_cast<int>(Regime::Serial) == 0 &&
              static_cast<int>(Regime::IntraBatch) == 1 &&
              static_cast<int>(Regime::IntraInterBatch) == 2);

/** "serial", "intra-batch" or "intra-inter-batch". */
const char *toString(Regime regime);

/**
 * (chunkSize, numChunks) of a regime's drain decomposition over
 * `totalMicroBatches`: Serial runs one micro-batch per chunk,
 * IntraBatch drains every min(max(1, microBatchesPerBatch), total)
 * micro-batches (a ragged tail batch is not executed), and
 * IntraInterBatch is a single chunk.
 */
std::pair<uint32_t, uint32_t> chunkStructure(
    Regime regime, uint32_t totalMicroBatches,
    uint32_t microBatchesPerBatch);

/** Per-stage interval in the computed timeline. */
struct StageWindow
{
    double startNs = 0.0;
    double endNs = 0.0;
};

/** Result of scheduling B micro-batches through N stages. */
struct ScheduleResult
{
    double makespanNs = 0.0;
    /** Busy time of each stage's crossbar group over the whole run. */
    std::vector<double> busyNs;
    /** Idle fraction of each stage's group: 1 - busy / makespan. */
    std::vector<double> idleFraction;
    /** Start/end of every (stage, micro-batch) pair; stage-major. */
    std::vector<std::vector<StageWindow>> windows;

    /** Average idle fraction across stages. */
    double avgIdleFraction() const;
};

/**
 * Exact event-driven pipeline schedule (Eqs. 3-4) for per-stage,
 * per-micro-batch execution times. stageTimesNs[i] applies to every
 * micro-batch of stage i; B is the micro-batch count.
 *
 * `recordWindows` (here and below) controls whether the per-(stage,
 * micro-batch) windows are materialized. false skips the O(stages x
 * B) allocation — the recurrence runs on rolling state with the
 * exact same arithmetic, so makespan/busy/idle are bit-identical —
 * for callers that only consume the summaries (the closed-form
 * engine outside traced runs).
 */
ScheduleResult schedulePipelined(const std::vector<double> &stageTimesNs,
                                 uint32_t numMicroBatches,
                                 bool recordWindows = true);

/**
 * Serial (non-pipelined) schedule: micro-batches and stages strictly
 * in sequence, as the paper's Serial baseline executes.
 */
ScheduleResult scheduleSerial(const std::vector<double> &stageTimesNs,
                              uint32_t numMicroBatches,
                              bool recordWindows = true);

/** Closed-form pipelined makespan (Eq. 6). */
double pipelinedMakespanNs(const std::vector<double> &stageTimesNs,
                           uint32_t numMicroBatches);

/**
 * General flow-shop recurrence with per-(stage, micro-batch) times —
 * Eq. 6's closed form only holds when every micro-batch takes the
 * same time per stage, but a real epoch's last micro-batch is ragged
 * (|V| mod B vertices). times[i][j] is stage i's time for micro-batch
 * j; all stages must list the same micro-batch count.
 */
ScheduleResult schedulePipelinedVariable(
    const std::vector<std::vector<double>> &timesNs);

/**
 * Pipelined schedule with an inter-batch barrier every
 * `microBatchesPerBatch` micro-batches: the pipeline drains at each
 * weight update, modeling intra-batch-only pipelining (SlimGNN-like /
 * ReGraphX). Total micro-batches = batches x microBatchesPerBatch.
 */
ScheduleResult scheduleIntraBatchOnly(
    const std::vector<double> &stageTimesNs,
    uint32_t microBatchesPerBatch, uint32_t numBatches,
    bool recordWindows = true);

} // namespace gopim::pipeline

#endif // GOPIM_PIPELINE_SCHEDULE_HH
