/**
 * @file
 * Discrete-event simulation core: a time-ordered queue of plain
 * events with deterministic tie-breaking (insertion order), the
 * foundation of the event-driven pipeline simulator in
 * sim/pipeline_sim.hh.
 *
 * An event is data, not a callback: the (stage, micro-batch) pair
 * whose service ends at timeNs. The queue is a binary min-heap in a
 * reusable vector (std::push_heap / std::pop_heap), so schedule and
 * pop cost O(log n) moves of 24-byte records and no allocation once
 * the vector has grown. The pipeline simulator's queue never holds
 * more than a few events per server, so the heap stays shallow.
 *
 * Ordering is part of the contract, not an accident of container
 * internals: events pop in strictly increasing (timeNs, seq) order,
 * where seq is the monotonic insertion index — equal timestamps pop
 * FIFO on every stdlib.
 */

#ifndef GOPIM_SIM_EVENT_QUEUE_HH
#define GOPIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gopim::sim {

/** A station finishing one micro-batch's service. */
struct Event
{
    double timeNs;
    uint64_t seq; ///< insertion order for deterministic ties
    uint32_t stage;
    uint32_t microBatch;
};

/** Time-ordered event heap (FIFO on ties). */
class EventQueue
{
  public:
    /**
     * `maxEvents` is a runaway guard: pop() panics once that many
     * events have been processed.
     */
    explicit EventQueue(uint64_t maxEvents = 100'000'000);

    /** Drop pending events and rewind time and counters; keeps capacity. */
    void clear();

    /** Schedule an event at absolute time `timeNs` (>= now). */
    void schedule(double timeNs, uint32_t stage, uint32_t microBatch);

    /** Schedule relative to the current time. */
    void scheduleAfter(double delayNs, uint32_t stage,
                       uint32_t microBatch);

    /** Remove the earliest event and advance time to it; not empty. */
    Event pop();

    /** Current simulation time. */
    double nowNs() const { return now_; }

    bool empty() const { return heap_.empty(); }
    size_t pending() const { return heap_.size(); }
    uint64_t processed() const { return processed_; }

  private:
    std::vector<Event> heap_;
    uint64_t maxEvents_;
    double now_ = 0.0;
    uint64_t nextSeq_ = 0;
    uint64_t processed_ = 0;
};

} // namespace gopim::sim

#endif // GOPIM_SIM_EVENT_QUEUE_HH
