/**
 * @file
 * GCN training as a workload family: the paper's 4L-stage CO/AG/LC/GC
 * pipeline priced by core::gcnTrainCosts, the costing core::Accelerator
 * uses, under the GoPIM execution policy (interleaved vertex mapping +
 * selective updating).
 *
 * The family view fixes the execution policy to the paper's GoPIM
 * preset so the costs are a pure function of the spec — what varies
 * across runs is the allocator and pipelining regime the runner
 * applies on top. Fault injection and the non-GoPIM policy presets
 * stay on the core::Accelerator path (core/systems.hh);
 * tests/test_workload.cc pins the family's fault-free run to that
 * path byte for byte.
 */

#ifndef GOPIM_WORKLOAD_GCN_TRAIN_HH
#define GOPIM_WORKLOAD_GCN_TRAIN_HH

#include "workload/family.hh"

namespace gopim::workload {

/** The gcn-train family (registered in familyRegistry). */
class GcnTrainFamily final : public WorkloadFamily
{
  public:
    FamilyKind kind() const override { return FamilyKind::GcnTrain; }
    std::string validateSpec(const WorkloadSpec &spec) const override;
    core::StageCosts plan(const WorkloadSpec &spec,
                          const reram::AcceleratorConfig &hw) const override;
};

} // namespace gopim::workload

#endif // GOPIM_WORKLOAD_GCN_TRAIN_HH
