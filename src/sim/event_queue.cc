#include "sim/event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gopim::sim {

namespace {

/** Heap comparator: `a` pops after `b`. */
bool
later(const Event &a, const Event &b)
{
    return a.timeNs > b.timeNs || (a.timeNs == b.timeNs && a.seq > b.seq);
}

} // namespace

EventQueue::EventQueue(uint64_t maxEvents) : maxEvents_(maxEvents) {}

void
EventQueue::clear()
{
    heap_.clear();
    now_ = 0.0;
    nextSeq_ = 0;
    processed_ = 0;
}

void
EventQueue::schedule(double timeNs, uint32_t stage, uint32_t microBatch)
{
    GOPIM_ASSERT(timeNs >= now_ - 1e-9,
                 "cannot schedule into the past (t=", timeNs,
                 ", now=", now_, ")");
    heap_.push_back({timeNs, nextSeq_++, stage, microBatch});
    std::push_heap(heap_.begin(), heap_.end(), later);
}

void
EventQueue::scheduleAfter(double delayNs, uint32_t stage,
                          uint32_t microBatch)
{
    GOPIM_ASSERT(delayNs >= 0.0, "negative delay");
    schedule(now_ + delayNs, stage, microBatch);
}

Event
EventQueue::pop()
{
    GOPIM_ASSERT(!heap_.empty(), "pop from an empty event queue");
    if (processed_ >= maxEvents_)
        panic("event queue exceeded ", maxEvents_,
              " events: runaway simulation");
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Event event = heap_.back();
    heap_.pop_back();
    now_ = event.timeNs;
    ++processed_;
    return event;
}

} // namespace gopim::sim
