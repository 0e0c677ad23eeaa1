#include "workload/runner.hh"

#include "common/logging.hh"

namespace gopim::workload {

core::StageCosts
familyCosts(const WorkloadSpec &spec, const reram::AcceleratorConfig &hw)
{
    const WorkloadFamily &family = familyFor(spec.family);
    if (const std::string problem = family.validateSpec(spec);
        !problem.empty())
        fatal(family.name(), ": ", problem);
    return family.plan(spec, hw);
}

core::RunResult
runFamily(const WorkloadSpec &spec, const core::SystemConfig &system,
          const reram::AcceleratorConfig &hw)
{
    core::RunResult result = core::executePlan(
        core::allocatePlan(familyCosts(spec, hw), system, hw), system, hw);
    result.datasetName = spec.dataset;
    return result;
}

} // namespace gopim::workload
