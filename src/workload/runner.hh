/**
 * @file
 * Workload runner: compiles a WorkloadSpec with its family and runs
 * the costs through the core run path (core::allocatePlan, then
 * core::executePlan) every workload shares, so inference runs produce
 * the same core::RunResult the GCN-training path emits and every
 * downstream reporter (tables, JSON, serve envelopes) works on them
 * unchanged. tests/test_workload.cc pins the gcn-train family to the
 * core::Accelerator path byte for byte.
 */

#ifndef GOPIM_WORKLOAD_RUNNER_HH
#define GOPIM_WORKLOAD_RUNNER_HH

#include <memory>
#include <string>

#include "common/memo_table.hh"
#include "core/accelerator.hh"
#include "core/result.hh"
#include "workload/family.hh"

namespace gopim::workload {

/** Compiled family costs keyed by familyPlanKey(). */
using PlanMemo = MemoTable<core::StageCosts>;

/**
 * Canonical key of every spec field family.plan(spec, hw) reads — the
 * family, dataset, micro-batch and epoch count, the seed where a
 * graph is sampled (not for cnn-infer), the partitioning for
 * gnn-infer — plus the hardware section the run-config keys carry.
 */
std::string familyPlanKey(const WorkloadSpec &spec,
                          const reram::AcceleratorConfig &hw);

/**
 * The spec's compiled costs: validated against its family (fatal()
 * with the family's diagnostic on bad specs), then taken from `plans`
 * (keyed by familyPlanKey) and compiled only on a miss, or compiled
 * directly when `plans` is null.
 */
std::shared_ptr<const core::StageCosts>
familyCosts(const WorkloadSpec &spec, const reram::AcceleratorConfig &hw,
            PlanMemo *plans = nullptr);

/**
 * Allocate and execute compiled `costs` under `system`. The result
 * names the spec's dataset; ISA streams and traces carry the costs'
 * label.
 */
core::RunResult runCosts(const WorkloadSpec &spec,
                         const core::StageCosts &costs,
                         const core::SystemConfig &system,
                         const reram::AcceleratorConfig &hw);

/** runCosts on familyCosts: the one-call compile-and-run entry point. */
core::RunResult runFamily(const WorkloadSpec &spec,
                          const core::SystemConfig &system,
                          const reram::AcceleratorConfig &hw,
                          PlanMemo *plans = nullptr);

} // namespace gopim::workload

#endif // GOPIM_WORKLOAD_RUNNER_HH
