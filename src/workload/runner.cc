#include "workload/runner.hh"

#include "common/logging.hh"
#include "core/report.hh"

namespace gopim::workload {

std::string
familyPlanKey(const WorkloadSpec &spec,
              const reram::AcceleratorConfig &hw)
{
    json::Value key = json::Value::object();
    key.set("family", toString(spec.family));
    key.set("dataset", spec.dataset);
    key.set("micro_batch", spec.microBatchSize);
    key.set("epochs", spec.epochs);
    if (spec.family != FamilyKind::CnnInfer)
        key.set("seed", spec.seed);
    if (spec.family == FamilyKind::GnnInfer)
        key.set("partition", toString(spec.partition));
    key.set("hardware", core::hardwareJson(hw));
    return key.canonical();
}

core::RunResult
runFamily(const WorkloadSpec &spec, const core::SystemConfig &system,
          const reram::AcceleratorConfig &hw, PlanMemo *plans)
{
    const WorkloadFamily &family = familyFor(spec.family);
    if (const std::string problem = family.validateSpec(spec);
        !problem.empty())
        fatal(family.name(), ": ", problem);
    const auto build = [&] { return family.plan(spec, hw); };
    const auto costs =
        plans ? plans->getOrBuild(familyPlanKey(spec, hw), build)
              : std::make_shared<const core::StageCosts>(build());
    core::RunResult result = core::executePlan(
        core::allocatePlan(*costs, system, hw), system, hw, costs->label);
    result.datasetName = spec.dataset;
    return result;
}

} // namespace gopim::workload
