#include "workload/gcn_train.hh"

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "core/systems.hh"
#include "gcn/workload.hh"
#include "graph/datasets.hh"

namespace gopim::workload {

std::string
GcnTrainFamily::validateSpec(const WorkloadSpec &spec) const
{
    const graph::DatasetSpec *dataset =
        graph::DatasetCatalog::findByName(spec.dataset);
    if (dataset == nullptr)
        return "unknown dataset '" + spec.dataset +
               "' (gcn-train uses the Table III graph catalog)";
    if (spec.microBatchSize == 0 || spec.microBatchSize > 4096)
        return "micro-batch size must lie in [1, 4096]";
    if (spec.epochs == 0)
        return "need at least one training epoch";
    return validateEpochs(
        ceilDiv(dataset->numVertices, spec.microBatchSize), spec.epochs);
}

core::StageCosts
GcnTrainFamily::plan(const WorkloadSpec &spec,
                     const reram::AcceleratorConfig &hw) const
{
    const std::string problem = validateSpec(spec);
    GOPIM_ASSERT(problem.empty(), "invalid gcn-train spec");

    auto w = gcn::Workload::paperDefault(spec.dataset);
    w.microBatchSize = spec.microBatchSize;
    w.epochs = spec.epochs;
    w.seed = spec.seed;

    core::StageCosts costs = core::gcnTrainCosts(
        w, gcn::lazyProfile(w),
        core::makeSystem(core::SystemKind::GoPim).policy, hw);
    costs.label = "gcn-train on " + spec.dataset;
    return costs;
}

} // namespace gopim::workload
