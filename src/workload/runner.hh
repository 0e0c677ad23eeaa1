/**
 * @file
 * Workload runner: executes a compiled StagePlan on the accelerator
 * substrate — replica allocation, pipelining on the configured
 * scheduling engine (with ISA recording/replay riding along), and
 * energy accounting — producing the same core::RunResult the
 * GCN-training path emits, so every downstream reporter (tables,
 * JSON, serve envelopes) works on inference runs unchanged.
 *
 * The arithmetic deliberately mirrors core::Accelerator's fault-free
 * path (accelerator.cc): estimate-driven allocation scales the
 * modeled times only for the allocator's decision, effective replicas
 * cap at the plan's parallelism ceiling, and replicas-as-servers mode
 * hands the engine single-replica times. tests/test_workload.cc pins
 * the gcn-train family to the accelerator path bit-for-bit.
 */

#ifndef GOPIM_WORKLOAD_RUNNER_HH
#define GOPIM_WORKLOAD_RUNNER_HH

#include <string>

#include "alloc/allocator.hh"
#include "common/memo_table.hh"
#include "core/accelerator.hh"
#include "core/result.hh"
#include "workload/family.hh"

namespace gopim::workload {

/** Compiled family plans keyed by familyPlanKey(). */
using PlanMemo = MemoTable<StagePlan>;

/**
 * Canonical key of every spec field family.plan(spec, hw) reads — the
 * family, dataset, micro-batch and epoch count, the seed where a
 * graph is sampled (not for cnn-infer), the partitioning for
 * gnn-infer — plus the hardware section the run-config keys carry.
 */
std::string familyPlanKey(const WorkloadSpec &spec,
                          const reram::AcceleratorConfig &hw);

/**
 * Build the replica-allocation problem for a plan on `hw`. fatal()s
 * when even single replicas of every stage exceed the chip budget.
 */
alloc::AllocationProblem
allocationProblem(const StagePlan &plan,
                  const reram::AcceleratorConfig &hw);

/**
 * Deterministic stage-time estimates for predictor-style allocation
 * studies: the plan's exact single-replica times perturbed by a
 * relative error drawn per stage from [-relErr, +relErr] (seeded).
 * Families without a trained predictor (the inference ones) use this
 * to exercise the estimate-driven allocation path.
 */
std::vector<double> perturbedEstimates(const StagePlan &plan,
                                       double relErr, uint64_t seed);

/**
 * Run a compiled plan under a system configuration (allocator,
 * pipelining mode, sim context). `estimatedStageTimesNs` optionally
 * drives the allocation decision (final times stay exact); empty
 * means allocate on the exact model.
 */
core::RunResult
runPlan(const StagePlan &plan, const core::SystemConfig &system,
        const reram::AcceleratorConfig &hw,
        const std::vector<double> &estimatedStageTimesNs = {});

/**
 * Compile and run: validate the spec against its family (fatal() with
 * the family's diagnostic on bad specs), build the plan, and execute
 * it under `system`. The one-call entry point for tools and serving.
 * With `plans`, the plan comes from that memo (keyed by
 * familyPlanKey) and is compiled only on a miss.
 */
core::RunResult
runFamily(const WorkloadSpec &spec, const core::SystemConfig &system,
          const reram::AcceleratorConfig &hw,
          const std::vector<double> &estimatedStageTimesNs = {},
          PlanMemo *plans = nullptr);

} // namespace gopim::workload

#endif // GOPIM_WORKLOAD_RUNNER_HH
