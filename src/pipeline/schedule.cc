#include "pipeline/schedule.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_utils.hh"

namespace gopim::pipeline {

const char *
toString(Regime regime)
{
    switch (regime) {
      case Regime::Serial:
        return "serial";
      case Regime::IntraBatch:
        return "intra-batch";
      case Regime::IntraInterBatch:
        return "intra-inter-batch";
    }
    panic("unknown regime");
}

std::pair<uint32_t, uint32_t>
chunkStructure(Regime regime, uint32_t totalMicroBatches,
               uint32_t microBatchesPerBatch)
{
    switch (regime) {
      case Regime::Serial:
        return {1u, totalMicroBatches};
      case Regime::IntraBatch: {
        const uint32_t perBatch = std::min(
            std::max(1u, microBatchesPerBatch), totalMicroBatches);
        return {perBatch, std::max(1u, totalMicroBatches / perBatch)};
      }
      case Regime::IntraInterBatch:
        return {totalMicroBatches, 1u};
    }
    panic("unknown regime");
}

double
ScheduleResult::avgIdleFraction() const
{
    return mean(idleFraction);
}

namespace {

/** Fill busy/idle summaries from the windows and makespan. */
void
finalize(ScheduleResult &result, const std::vector<double> &stageTimesNs,
         uint32_t numMicroBatches)
{
    const size_t numStages = stageTimesNs.size();
    result.busyNs.resize(numStages);
    result.idleFraction.resize(numStages);
    for (size_t i = 0; i < numStages; ++i) {
        result.busyNs[i] = stageTimesNs[i] * numMicroBatches;
        result.idleFraction[i] =
            result.makespanNs > 0.0
                ? 1.0 - result.busyNs[i] / result.makespanNs
                : 0.0;
        result.idleFraction[i] =
            std::clamp(result.idleFraction[i], 0.0, 1.0);
    }
}

} // namespace

ScheduleResult
schedulePipelined(const std::vector<double> &stageTimesNs,
                  uint32_t numMicroBatches, bool recordWindows)
{
    GOPIM_ASSERT(!stageTimesNs.empty(), "schedule with no stages");
    GOPIM_ASSERT(numMicroBatches >= 1, "need at least one micro-batch");

    const size_t numStages = stageTimesNs.size();
    ScheduleResult result;
    if (recordWindows)
        result.windows.assign(numStages,
                              std::vector<StageWindow>(numMicroBatches));

    // prevEnd[i] holds stage i's end time for the previous
    // micro-batch, so the recurrence needs only O(stages) state when
    // windows are not recorded. The arithmetic — operand values and
    // order — is identical either way.
    std::vector<double> prevEnd(numStages, 0.0);
    for (uint32_t j = 0; j < numMicroBatches; ++j) {
        double prevStageEnd = 0.0;
        for (size_t i = 0; i < numStages; ++i) {
            // Eq. (3): wait for this stage's previous micro-batch.
            double start = j > 0 ? prevEnd[i] : 0.0;
            // Eq. (4): wait for the previous stage of this micro-batch.
            if (i > 0)
                start = std::max(start, prevStageEnd);
            const double end = start + stageTimesNs[i];
            if (recordWindows) {
                result.windows[i][j].startNs = start;
                result.windows[i][j].endNs = end;
            }
            prevEnd[i] = end;
            prevStageEnd = end;
        }
    }
    result.makespanNs = prevEnd.back();
    finalize(result, stageTimesNs, numMicroBatches);
    return result;
}

ScheduleResult
scheduleSerial(const std::vector<double> &stageTimesNs,
               uint32_t numMicroBatches, bool recordWindows)
{
    GOPIM_ASSERT(!stageTimesNs.empty(), "schedule with no stages");
    GOPIM_ASSERT(numMicroBatches >= 1, "need at least one micro-batch");

    const size_t numStages = stageTimesNs.size();
    ScheduleResult result;
    if (recordWindows)
        result.windows.assign(numStages,
                              std::vector<StageWindow>(numMicroBatches));

    double clock = 0.0;
    for (uint32_t j = 0; j < numMicroBatches; ++j) {
        for (size_t i = 0; i < numStages; ++i) {
            if (recordWindows)
                result.windows[i][j].startNs = clock;
            clock += stageTimesNs[i];
            if (recordWindows)
                result.windows[i][j].endNs = clock;
        }
    }
    result.makespanNs = clock;
    finalize(result, stageTimesNs, numMicroBatches);
    return result;
}

ScheduleResult
schedulePipelinedVariable(
    const std::vector<std::vector<double>> &timesNs)
{
    GOPIM_ASSERT(!timesNs.empty(), "schedule with no stages");
    const size_t numStages = timesNs.size();
    const size_t numMicroBatches = timesNs.front().size();
    GOPIM_ASSERT(numMicroBatches >= 1, "need at least one micro-batch");
    for (const auto &row : timesNs)
        GOPIM_ASSERT(row.size() == numMicroBatches,
                     "ragged per-stage micro-batch counts");

    ScheduleResult result;
    result.windows.assign(numStages,
                          std::vector<StageWindow>(numMicroBatches));
    for (size_t j = 0; j < numMicroBatches; ++j) {
        for (size_t i = 0; i < numStages; ++i) {
            double start =
                j > 0 ? result.windows[i][j - 1].endNs : 0.0;
            if (i > 0)
                start = std::max(start, result.windows[i - 1][j].endNs);
            result.windows[i][j].startNs = start;
            result.windows[i][j].endNs = start + timesNs[i][j];
        }
    }
    result.makespanNs = result.windows.back().back().endNs;

    result.busyNs.resize(numStages);
    result.idleFraction.resize(numStages);
    for (size_t i = 0; i < numStages; ++i) {
        double busy = 0.0;
        for (double t : timesNs[i])
            busy += t;
        result.busyNs[i] = busy;
        result.idleFraction[i] =
            result.makespanNs > 0.0
                ? std::clamp(1.0 - busy / result.makespanNs, 0.0,
                             1.0)
                : 0.0;
    }
    return result;
}

double
pipelinedMakespanNs(const std::vector<double> &stageTimesNs,
                    uint32_t numMicroBatches)
{
    GOPIM_ASSERT(!stageTimesNs.empty(), "schedule with no stages");
    double sum = 0.0;
    double maxTime = 0.0;
    for (double t : stageTimesNs) {
        sum += t;
        maxTime = std::max(maxTime, t);
    }
    return sum + static_cast<double>(numMicroBatches - 1) * maxTime;
}

ScheduleResult
scheduleIntraBatchOnly(const std::vector<double> &stageTimesNs,
                       uint32_t microBatchesPerBatch,
                       uint32_t numBatches, bool recordWindows)
{
    GOPIM_ASSERT(numBatches >= 1, "need at least one batch");
    // One batch pipelines internally, then the pipeline drains before
    // the next batch starts (weight update barrier).
    ScheduleResult perBatch = schedulePipelined(
        stageTimesNs, microBatchesPerBatch, recordWindows);

    ScheduleResult result;
    const size_t numStages = stageTimesNs.size();
    const uint32_t totalMb = microBatchesPerBatch * numBatches;
    if (recordWindows) {
        result.windows.assign(numStages,
                              std::vector<StageWindow>(totalMb));
        for (uint32_t b = 0; b < numBatches; ++b) {
            const double offset =
                perBatch.makespanNs * static_cast<double>(b);
            for (size_t i = 0; i < numStages; ++i) {
                for (uint32_t j = 0; j < microBatchesPerBatch; ++j) {
                    auto &dst =
                        result
                            .windows[i][b * microBatchesPerBatch + j];
                    dst.startNs =
                        perBatch.windows[i][j].startNs + offset;
                    dst.endNs = perBatch.windows[i][j].endNs + offset;
                }
            }
        }
    }
    result.makespanNs =
        perBatch.makespanNs * static_cast<double>(numBatches);
    finalize(result, stageTimesNs, totalMb);
    return result;
}

} // namespace gopim::pipeline
