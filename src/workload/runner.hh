/**
 * @file
 * Workload runner: compiles a WorkloadSpec with its family and runs
 * the costs through the core run path (core::allocatePlan, then
 * core::executePlan) every workload shares, so inference runs produce
 * the same core::RunResult the GCN-training path emits and every
 * downstream reporter (tables, JSON, serve envelopes) works on them
 * unchanged. tests/test_workload.cc pins the gcn-train family to the
 * core::Accelerator path byte for byte. serve::runRequest plans the
 * same way and memoizes the allocated plan.
 */

#ifndef GOPIM_WORKLOAD_RUNNER_HH
#define GOPIM_WORKLOAD_RUNNER_HH

#include "core/accelerator.hh"
#include "core/result.hh"
#include "workload/family.hh"

namespace gopim::workload {

/**
 * The spec's compiled costs, validated against its family first
 * (fatal() with the family's diagnostic on bad specs).
 */
core::StageCosts familyCosts(const WorkloadSpec &spec,
                             const reram::AcceleratorConfig &hw);

/**
 * Compile, allocate and execute `spec` under `system`. The result
 * names the spec's dataset; ISA streams and traces carry the costs'
 * label.
 */
core::RunResult runFamily(const WorkloadSpec &spec,
                          const core::SystemConfig &system,
                          const reram::AcceleratorConfig &hw);

} // namespace gopim::workload

#endif // GOPIM_WORKLOAD_RUNNER_HH
