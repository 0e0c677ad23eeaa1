/**
 * @file
 * Span-timed wrappers around layer entry points that run inside a
 * program call (the allocator inside Accelerator::buildPlan), shared
 * by the grid and serve traced runs.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <memory>
#include <string>

#include "alloc/allocator.hh"
#include "trace.hh"

namespace perfbench {

/** Times every allocate() call of the wrapped allocator as a span. */
class TimedAllocator final : public gopim::alloc::Allocator
{
  public:
    TimedAllocator(std::shared_ptr<const gopim::alloc::Allocator> inner,
                   Tracer *tracer, const uint64_t *op)
        : inner_(std::move(inner)), tracer_(tracer), op_(op)
    {
    }

    gopim::alloc::AllocationResult
    allocate(const gopim::alloc::AllocationProblem &problem) const override
    {
        ScopedSpan span(tracer_, "alloc.allocate", *op_);
        return inner_->allocate(problem);
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::shared_ptr<const gopim::alloc::Allocator> inner_;
    Tracer *tracer_;
    const uint64_t *op_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
