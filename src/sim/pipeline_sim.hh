/**
 * @file
 * Event-driven flow-shop simulator of the GCN training pipeline.
 *
 * Where pipeline/schedule.hh evaluates the closed-form Eq. 6 makespan
 * (single server per stage, unbounded buffers, deterministic times),
 * this simulator executes the pipeline event by event and can model
 * what the closed form cannot:
 *
 *  - bounded inter-stage buffers (a full buffer blocks the upstream
 *    server — backpressure),
 *  - multi-server stages (replica groups processing distinct
 *    micro-batches concurrently instead of splitting one),
 *  - stochastic service times (e.g. ReRAM write-verify retries).
 *
 * With one server per stage, unbounded buffers, and deterministic
 * times it reproduces the closed form exactly — the integration tests
 * assert this equivalence.
 *
 * A PipelineSimulator is built once per schedule and run once per
 * independent chunk (the drain regimes repeat a short pipeline many
 * times); each run resets its stations, event heap and RNG in place,
 * so a chunk costs no allocation once the buffers have grown. Events
 * pop in (timeNs, seq) order (sim/event_queue.hh), and service times
 * are sampled when a micro-batch starts, so the sampler sees the
 * same calls in the same order, and draws the same random numbers,
 * for any reuse pattern: a reused simulator's runs are bit-identical
 * to fresh ones.
 */

#ifndef GOPIM_SIM_PIPELINE_SIM_HH
#define GOPIM_SIM_PIPELINE_SIM_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "pipeline/schedule.hh"
#include "sim/event_queue.hh"

namespace gopim::sim {

/** One pipeline stage as a queueing station. */
struct StationConfig
{
    /** Deterministic service time per micro-batch (ns). */
    double serviceTimeNs = 0.0;
    /** Concurrent micro-batches the stage can process. */
    uint32_t servers = 1;
    /**
     * Input-buffer slots in front of this station (waiting
     * micro-batches, excluding the ones in service). Unbounded by
     * default; 0 forces direct handoff.
     */
    uint32_t inputBuffer = std::numeric_limits<uint32_t>::max();
};

/**
 * Optional stochastic service-time hook: returns the actual service
 * time for (stage, microBatch); defaults to the configured constant.
 */
using ServiceSampler =
    std::function<double(size_t stage, uint32_t microBatch, Rng &rng)>;

/** Simulation outcome. */
struct SimResult
{
    double makespanNs = 0.0;
    /** Per-stage total busy (serving) time across servers. */
    std::vector<double> busyNs;
    /** Per-stage total time finished work sat blocked by backpressure. */
    std::vector<double> blockedNs;
    /** Completed micro-batches (== requested unless deadlocked). */
    uint32_t completed = 0;
    uint64_t eventsProcessed = 0;
    /** High-water mark of pending events in the queue. */
    uint64_t maxEventQueueDepth = 0;
    /**
     * Per-(stage, micro-batch) service windows, stage-major; only
     * filled when recording was requested (observability costs
     * memory on multi-epoch runs).
     */
    std::vector<std::vector<pipeline::StageWindow>> windows;

    /** Idle fraction of a stage's servers over the makespan. */
    double idleFraction(size_t stage) const;
};

/**
 * Reusable flow-shop simulator over a fixed station chain. Not
 * thread-safe; build one per schedule (or per thread).
 */
class PipelineSimulator
{
  public:
    /** `recordWindows` fills SimResult::windows on every run. */
    PipelineSimulator(const std::vector<StationConfig> &stations,
                      bool recordWindows);

    /**
     * Simulate `microBatches` jobs flowing through the stations in
     * order, starting from an empty pipeline at t = 0. `sampler`
     * (optional) overrides per-job service times and is called with
     * the job's index plus `mbBase`; `seed` drives its randomness.
     * The result stays valid until the next run().
     */
    const SimResult &run(uint32_t microBatches,
                         const ServiceSampler &sampler, uint32_t mbBase,
                         uint64_t seed);

  private:
    /** Grow-only power-of-two ring buffer, reused across runs. */
    template <typename T>
    class Fifo
    {
      public:
        bool empty() const { return head_ == tail_; }
        size_t size() const { return tail_ - head_; }
        const T &front() const { return slots_[head_ & mask_]; }
        void pop() { ++head_; }
        void clear() { head_ = tail_ = 0; }

        void
        push(const T &value)
        {
            if (size() == slots_.size())
                grow();
            slots_[tail_++ & mask_] = value;
        }

      private:
        void
        grow()
        {
            std::vector<T> bigger(std::max<size_t>(8, 2 * slots_.size()));
            for (size_t i = 0; i < size(); ++i)
                bigger[i] = slots_[(head_ + i) & mask_];
            tail_ = size();
            head_ = 0;
            slots_.swap(bigger);
            mask_ = slots_.size() - 1;
        }

        std::vector<T> slots_;
        size_t mask_ = 0;
        size_t head_ = 0;
        size_t tail_ = 0;
    };

    /** A finished micro-batch waiting to move downstream. */
    struct Handoff
    {
        uint32_t microBatch;
        double doneAtNs;
    };

    /** Mutable per-station simulation state. */
    struct Station
    {
        StationConfig config;
        /** Micro-batches waiting to start (arrival order). */
        Fifo<uint32_t> inputQueue;
        /**
         * Finished micro-batches awaiting handoff downstream, in
         * finish order; each holds one of this station's servers
         * until accepted. Multi-server stations may legitimately
         * finish out of order (distinct replica groups), so handoff
         * follows finish order.
         */
        Fifo<Handoff> blocked;
        uint32_t freeServers = 0;
        double busyNs = 0.0;
        double blockedNs = 0.0;
    };

    double serviceTime(size_t stage, uint32_t mb);
    void tryStart(size_t stageIdx);
    bool hasSpace(size_t stageIdx) const;
    void drainBlocked(size_t stageIdx);
    void onFinish(size_t stageIdx, uint32_t mb);

    std::vector<Station> stations_;
    bool recordWindows_;
    const ServiceSampler *sampler_ = nullptr;
    uint32_t mbBase_ = 0;
    Rng rng_;
    EventQueue queue_;
    uint32_t completed_ = 0;
    uint64_t maxQueueDepth_ = 0;
    SimResult result_;
};

/**
 * Simulate `microBatches` jobs flowing through the stations in order
 * on a one-off PipelineSimulator. `sampler` (optional) overrides
 * per-job service times; `seed` drives the sampler's randomness.
 * `recordWindows` fills SimResult::windows.
 */
SimResult simulatePipeline(const std::vector<StationConfig> &stations,
                           uint32_t microBatches,
                           const ServiceSampler &sampler = {},
                           uint64_t seed = 1,
                           bool recordWindows = false);

/**
 * ReRAM write-retry sampler factory: with probability `retryProb`
 * each (geometric) attempt of the stage's write portion fails
 * write-verify and repeats. `writeFraction` is the portion of the
 * stage's service time attributable to writes.
 */
ServiceSampler makeWriteRetrySampler(
    const std::vector<StationConfig> &stations, double retryProb,
    double writeFraction);

} // namespace gopim::sim

#endif // GOPIM_SIM_PIPELINE_SIM_HH
