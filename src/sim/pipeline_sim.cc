#include "sim/pipeline_sim.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gopim::sim {

double
SimResult::idleFraction(size_t stage) const
{
    GOPIM_ASSERT(stage < busyNs.size(), "stage out of range");
    if (makespanNs <= 0.0)
        return 0.0;
    // Busy time is summed across the stage's servers; normalize by
    // one server's wall clock so a saturated single server reads 0.
    return std::clamp(1.0 - busyNs[stage] / makespanNs, 0.0, 1.0);
}

PipelineSimulator::PipelineSimulator(
    const std::vector<StationConfig> &stations, bool recordWindows)
    : recordWindows_(recordWindows)
{
    GOPIM_ASSERT(!stations.empty(), "pipeline with no stations");
    stations_.resize(stations.size());
    for (size_t i = 0; i < stations.size(); ++i) {
        GOPIM_ASSERT(stations[i].servers >= 1,
                     "station needs >= 1 server");
        stations_[i].config = stations[i];
    }
    result_.busyNs.resize(stations.size());
    result_.blockedNs.resize(stations.size());
    if (recordWindows)
        result_.windows.resize(stations.size());
}

const SimResult &
PipelineSimulator::run(uint32_t microBatches,
                       const ServiceSampler &sampler, uint32_t mbBase,
                       uint64_t seed)
{
    GOPIM_ASSERT(microBatches >= 1, "need at least one micro-batch");
    sampler_ = sampler ? &sampler : nullptr;
    mbBase_ = mbBase;
    rng_ = Rng(seed);
    queue_.clear();
    completed_ = 0;
    maxQueueDepth_ = 0;
    for (Station &s : stations_) {
        s.inputQueue.clear();
        s.blocked.clear();
        s.freeServers = s.config.servers;
        s.busyNs = 0.0;
        s.blockedNs = 0.0;
    }
    for (auto &stageWindows : result_.windows)
        stageWindows.assign(microBatches, {});
    // All micro-batches are released to stage 0 at t = 0; stage 0's
    // input feed is the off-chip stream, unbounded.
    for (uint32_t j = 0; j < microBatches; ++j)
        stations_.front().inputQueue.push(j);

    tryStart(0);
    while (!queue_.empty()) {
        const Event event = queue_.pop();
        onFinish(event.stage, event.microBatch);
    }

    GOPIM_ASSERT(completed_ == microBatches,
                 "pipeline deadlocked: ", completed_, " of ",
                 microBatches, " completed");
    result_.makespanNs = queue_.nowNs();
    result_.completed = completed_;
    result_.eventsProcessed = queue_.processed();
    result_.maxEventQueueDepth = maxQueueDepth_;
    for (size_t i = 0; i < stations_.size(); ++i) {
        result_.busyNs[i] = stations_[i].busyNs;
        result_.blockedNs[i] = stations_[i].blockedNs;
    }
    return result_;
}

double
PipelineSimulator::serviceTime(size_t stage, uint32_t mb)
{
    if (sampler_)
        return (*sampler_)(stage, mb + mbBase_, rng_);
    return stations_[stage].config.serviceTimeNs;
}

/**
 * Start queued micro-batches while servers are free. Starting work
 * frees input-buffer slots, so upstream blocked handoffs are drained
 * afterwards.
 */
void
PipelineSimulator::tryStart(size_t stageIdx)
{
    Station &station = stations_[stageIdx];
    bool startedAny = false;
    while (station.freeServers > 0 && !station.inputQueue.empty()) {
        const uint32_t mb = station.inputQueue.front();
        station.inputQueue.pop();
        --station.freeServers;
        startedAny = true;
        const double service = serviceTime(stageIdx, mb);
        station.busyNs += service;
        if (recordWindows_) {
            auto &window = result_.windows[stageIdx][mb];
            window.startNs = queue_.nowNs();
            window.endNs = queue_.nowNs() + service;
        }
        queue_.scheduleAfter(service, static_cast<uint32_t>(stageIdx),
                             mb);
        maxQueueDepth_ =
            std::max<uint64_t>(maxQueueDepth_, queue_.pending());
    }
    if (startedAny && stageIdx > 0)
        drainBlocked(stageIdx - 1);
}

/** Room for one more waiting micro-batch in front of a station? */
bool
PipelineSimulator::hasSpace(size_t stageIdx) const
{
    const Station &station = stations_[stageIdx];
    // A free server with an empty queue means direct handoff: the job
    // will not occupy a buffer slot.
    if (station.freeServers > 0 && station.inputQueue.empty())
        return true;
    return station.inputQueue.size() <
           static_cast<size_t>(station.config.inputBuffer);
}

/** Move this station's blocked handoffs downstream, in order. */
void
PipelineSimulator::drainBlocked(size_t stageIdx)
{
    Station &station = stations_[stageIdx];
    const size_t next = stageIdx + 1;
    while (!station.blocked.empty() && hasSpace(next)) {
        const Handoff handoff = station.blocked.front();
        station.blocked.pop();
        station.blockedNs += queue_.nowNs() - handoff.doneAtNs;
        ++station.freeServers;
        stations_[next].inputQueue.push(handoff.microBatch);
        tryStart(next);
        tryStart(stageIdx);
        // This station's server freed: the release propagates
        // upstream even when this station had nothing queued.
        if (stageIdx > 0)
            drainBlocked(stageIdx - 1);
    }
}

void
PipelineSimulator::onFinish(size_t stageIdx, uint32_t mb)
{
    Station &station = stations_[stageIdx];
    if (stageIdx + 1 == stations_.size()) {
        ++completed_;
        ++station.freeServers;
        tryStart(stageIdx);
    } else {
        // Handoffs leave in finish order through the blocked queue;
        // an immediate handoff spends zero time blocked.
        station.blocked.push({mb, queue_.nowNs()});
        drainBlocked(stageIdx);
    }
    // A server freed (or a handoff slot opened) here; upstream
    // blocked handoffs may now fit even if nothing new started.
    if (stageIdx > 0)
        drainBlocked(stageIdx - 1);
}

SimResult
simulatePipeline(const std::vector<StationConfig> &stations,
                 uint32_t microBatches, const ServiceSampler &sampler,
                 uint64_t seed, bool recordWindows)
{
    PipelineSimulator simulator(stations, recordWindows);
    return simulator.run(microBatches, sampler, 0, seed);
}

ServiceSampler
makeWriteRetrySampler(const std::vector<StationConfig> &stations,
                      double retryProb, double writeFraction)
{
    GOPIM_ASSERT(retryProb >= 0.0 && retryProb < 1.0,
                 "retry probability must be in [0, 1)");
    GOPIM_ASSERT(writeFraction >= 0.0 && writeFraction <= 1.0,
                 "write fraction must be in [0, 1]");
    std::vector<double> base;
    for (const auto &s : stations)
        base.push_back(s.serviceTimeNs);

    return [base, retryProb, writeFraction](
               size_t stage, uint32_t, Rng &rng) {
        const double computePart = base[stage] * (1.0 - writeFraction);
        const double writePart = base[stage] * writeFraction;
        // Geometric retries: each write-verify failure repeats the
        // write portion.
        uint32_t attempts = 1;
        while (rng.bernoulli(retryProb) && attempts < 64)
            ++attempts;
        return computePart + writePart * static_cast<double>(attempts);
    };
}

} // namespace gopim::sim
