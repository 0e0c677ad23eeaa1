#include "core/accelerator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "fault/repair.hh"
#include "fault/wear.hh"
#include "mapping/vertex_map.hh"
#include "obs/metrics.hh"
#include "reram/energy.hh"
#include "sim/trace.hh"

namespace gopim::core {

sim::Regime
regimeFor(PipelineMode mode)
{
    switch (mode) {
      case PipelineMode::Serial:
        return sim::Regime::Serial;
      case PipelineMode::IntraBatch:
        return sim::Regime::IntraBatch;
      case PipelineMode::IntraInterBatch:
        return sim::Regime::IntraInterBatch;
    }
    panic("unknown pipeline mode");
}

void
StageCosts::validate() const
{
    const size_t n = stages.size();
    GOPIM_ASSERT(n > 0, "stage costs have no stages");
    GOPIM_ASSERT(scalableTimesNs.size() == n &&
                     fixedTimesNs.size() == n &&
                     crossbarsPerReplica.size() == n &&
                     activationsPerMb.size() == n &&
                     rowWritesPerMb.size() == n &&
                     bufferBytesPerMb.size() == n,
                 "stage cost arrays disagree on stage count");
    GOPIM_ASSERT(totalMicroBatches > 0, "stage costs have no micro-batches");
    GOPIM_ASSERT(maxUsefulReplicas > 0,
                 "stage costs need a positive replica ceiling");
    for (size_t i = 0; i < n; ++i) {
        GOPIM_ASSERT(std::isfinite(scalableTimesNs[i]) &&
                         scalableTimesNs[i] >= 0.0,
                     "non-finite scalable stage time");
        GOPIM_ASSERT(std::isfinite(fixedTimesNs[i]) &&
                         fixedTimesNs[i] >= 0.0,
                     "non-finite fixed stage time");
        GOPIM_ASSERT(crossbarsPerReplica[i] > 0,
                     "stage occupies zero crossbars");
    }
}

StageCosts
gcnTrainCosts(const gcn::Workload &workload,
              const gcn::ProfileProvider &profile,
              const gcn::ExecutionPolicy &policy,
              const reram::AcceleratorConfig &hw,
              gcn::MappingArtifacts *artifacts)
{
    // Index mapping with full updates reads only the group count, the
    // update bound min(|V|, rows) and an update fraction of 1, which
    // fullUpdateApprox gives exactly. The profile draws at least two
    // vertices (DatasetCatalog::degreeSequence), so count as it does.
    auto mapped =
        artifacts || policy.needsDegreeProfile(workload.dataset)
            ? gcn::MappingArtifacts::build(profile(), policy,
                                           workload.dataset,
                                           hw.crossbar.rows)
            : gcn::MappingArtifacts::fullUpdateApprox(
                  std::max<uint64_t>(2, workload.dataset.numVertices),
                  hw.crossbar.rows);
    StageCosts out;
    out.label = workload.dataset.name;
    out.stages = pipeline::buildTrainingStages(workload.model.numLayers);
    for (const auto &cost :
         gcn::StageTimeModel(hw).allCosts(workload, policy, mapped)) {
        out.scalableTimesNs.push_back(cost.scalableNs);
        out.fixedTimesNs.push_back(cost.fixedNs);
        out.crossbarsPerReplica.push_back(cost.crossbarsPerReplica);
        out.activationsPerMb.push_back(cost.activationsPerMb);
        out.rowWritesPerMb.push_back(cost.rowWritesPerMb);
        out.bufferBytesPerMb.push_back(cost.bufferBytesPerMb);
    }
    out.microBatchesPerEpoch = workload.microBatchesPerEpoch();
    out.totalMicroBatches = out.microBatchesPerEpoch * workload.epochs;
    out.maxUsefulReplicas = workload.microBatchSize * 4;
    if (artifacts)
        *artifacts = std::move(mapped);
    return out;
}

StagePlan
allocatePlan(const StageCosts &costs, const SystemConfig &system,
             const reram::AcceleratorConfig &hw,
             const fault::RepairPlan *repair,
             const std::vector<double> &estimatedStageTimesNs)
{
    costs.validate();
    const size_t n = costs.numStages();
    alloc::AllocationProblem problem;
    problem.stages = costs.stages;
    problem.numMicroBatches = costs.microBatchesPerEpoch;
    problem.maxUsefulReplicas = costs.maxUsefulReplicas;
    problem.scalableTimesNs = costs.scalableTimesNs;
    problem.fixedTimesNs = costs.fixedTimesNs;
    uint64_t mandatory = 0;
    for (uint64_t xbars : costs.crossbarsPerReplica) {
        if (repair && repair->crossbarOverheadFactor > 1.0) {
            // Spare rows / duplicate columns shrink usable capacity.
            xbars = static_cast<uint64_t>(
                std::ceil(static_cast<double>(xbars) *
                          repair->crossbarOverheadFactor));
        }
        problem.crossbarsPerReplica.push_back(xbars);
        mandatory += xbars;
    }
    if (!estimatedStageTimesNs.empty()) {
        GOPIM_ASSERT(estimatedStageTimesNs.size() == n,
                     "estimate vector size mismatch");
        for (size_t i = 0; i < n; ++i) {
            const double total =
                costs.scalableTimesNs[i] + costs.fixedTimesNs[i];
            const double ratio =
                total > 0.0 ? estimatedStageTimesNs[i] / total : 1.0;
            problem.scalableTimesNs[i] *= ratio;
            problem.fixedTimesNs[i] *= ratio;
        }
    }
    const uint64_t budget = hw.totalCrossbars();
    if (mandatory > budget) {
        fatal("workload '", costs.label, "' does not fit: needs ",
              mandatory, " crossbars for single replicas, chip has ",
              budget);
    }
    problem.spareCrossbars = budget - mandatory;

    alloc::AllocationResult allocation;
    if (system.allocator) {
        allocation = system.allocator->allocate(problem);
    } else {
        allocation.replicas.assign(n, 1);
        allocation.totalCrossbars = mandatory;
    }

    // Final stage times always use the exact costs (estimates only
    // influence the allocation decision). Replicas beyond the
    // effective-parallelism ceiling buy nothing. Write-verify retries
    // on faulty cells stretch the write-bound (fixed) part of a stage.
    const double writeAmplification =
        repair ? repair->writeAmplification : 1.0;
    const uint64_t microBatches = costs.totalMicroBatches;
    StagePlan out;
    out.label = costs.label;
    out.stages = costs.stages;
    out.totalMicroBatches = costs.totalMicroBatches;
    out.stageTimesNs.resize(n);
    out.serverStageTimesNs.resize(n);
    out.effectiveReplicas.resize(n);
    out.stageCrossbars.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const uint32_t replicas = allocation.replicas[i];
        const uint32_t effective =
            std::min(replicas, costs.maxUsefulReplicas);
        out.effectiveReplicas[i] = effective;
        const double fixedNs = costs.fixedTimesNs[i] * writeAmplification;
        out.stageTimesNs[i] = fixedNs + costs.scalableTimesNs[i] /
                                            static_cast<double>(effective);
        // Single-replica times for the replicas-as-servers event
        // mode: replica groups serve distinct micro-batches instead
        // of splitting one.
        out.serverStageTimesNs[i] = fixedNs + costs.scalableTimesNs[i];
        out.stageCrossbars[i] = static_cast<uint64_t>(replicas) *
                                costs.crossbarsPerReplica[i];
        out.totalActivations += costs.activationsPerMb[i] * microBatches;
        out.totalBufferBytes += costs.bufferBytesPerMb[i] * microBatches;
        // Replicated regions receive every write in parallel: the
        // wear and energy multiply, the latency does not.
        out.replicatedWrites +=
            costs.rowWritesPerMb[i] * microBatches * replicas;
    }
    if (repair) {
        // Verify retries / duplication amplify every write; each
        // refresh re-programs every allocated crossbar's rows.
        out.replicatedWrites = static_cast<uint64_t>(
            static_cast<double>(out.replicatedWrites) *
            writeAmplification);
        if (repair->refreshEveryMicroBatches > 0) {
            const uint64_t refreshes =
                microBatches / repair->refreshEveryMicroBatches;
            out.replicatedWrites += refreshes *
                                    repair->rowWritesPerRefresh *
                                    allocation.totalCrossbars;
        }
        out.faultOn = true;
        out.repairPlan = *repair;
    }
    out.replicas = std::move(allocation.replicas);
    out.totalCrossbars = allocation.totalCrossbars;
    return out;
}

RunResult
executePlan(const StagePlan &plan, const SystemConfig &system,
            const reram::AcceleratorConfig &hw)
{
    const std::string &label = plan.label;
    // Schedule the pipelining regime on the context's timing backend
    // (closed-form Eq. 3-6 or the discrete-event flow shop). The
    // context is copied per run to keep this path stateless.
    sim::SimContext ctx = system.sim;
    ctx.recordWindows = ctx.recordWindows || ctx.traceSink != nullptr;
    if (ctx.isaRecorder)
        ctx.isaStreamLabel = system.name + " on " + label;

    sim::ScheduleRequest request;
    request.stageTimesNs = ctx.event.replicasAsServers
                               ? plan.serverStageTimesNs
                               : plan.stageTimesNs;
    request.replicas = plan.effectiveReplicas;
    request.totalMicroBatches = plan.totalMicroBatches;
    request.microBatchesPerBatch = system.microBatchesPerBatch;
    request.regime = regimeFor(system.pipelineMode);
    if (plan.faultOn && plan.repairPlan.refreshEveryMicroBatches > 0) {
        // Periodic re-program refresh steals pipeline cycles; both
        // engines execute the knobs (sim/context.hh).
        ctx.event.refreshEveryMicroBatches =
            plan.repairPlan.refreshEveryMicroBatches;
        ctx.event.refreshStallNs = plan.repairPlan.refreshStallNs;
    }

    const sim::ScheduleEngine &engine = sim::resolveEngine(ctx);
    const sim::StageTimeline schedule = engine.schedule(request, ctx);
    if (ctx.traceSink)
        ctx.traceSink->record({system.name, label, engine.name()},
                              plan.stages, schedule);

    // Allocation/fault observability. Everything recorded derives
    // from the (deterministic) run inputs, so exported counters are
    // identical for any harness worker count.
    if (ctx.metrics) {
        obs::MetricsRegistry &m = *ctx.metrics;
        m.counter("core.run.count").add();
        m.counter("alloc.crossbars_allocated")
            .add(plan.totalCrossbars);
        auto &replicasHist = m.histogram(
            "alloc.replicas_per_stage",
            obs::Histogram::exponentialBounds(1.0, 2.0, 12));
        for (uint32_t r : plan.replicas)
            replicasHist.observe(static_cast<double>(r));
        if (plan.faultOn) {
            m.counter("fault.run.count").add();
            m.histogram("fault.write_amplification",
                        obs::Histogram::linearBounds(1.0, 0.25, 13))
                .observe(plan.repairPlan.writeAmplification);
            if (plan.repairPlan.refreshEveryMicroBatches > 0)
                m.counter("fault.refreshes")
                    .add(plan.totalMicroBatches /
                         plan.repairPlan.refreshEveryMicroBatches);
        }
    }

    RunResult result;
    result.systemName = system.name;
    result.datasetName = label;
    result.makespanNs = schedule.makespanNs;
    result.replicas = plan.replicas;
    result.totalCrossbars = plan.totalCrossbars;
    result.stageCrossbars = plan.stageCrossbars;
    result.stageTimesNs = plan.stageTimesNs;
    result.idleFraction = schedule.idleFraction;
    result.avgIdleFraction = schedule.avgIdleFraction();
    result.engineName = engine.name();
    result.blockedNs = schedule.blockedNs;
    result.eventsProcessed = schedule.eventsProcessed;
    result.totalActivations = plan.totalActivations;
    result.totalRowWrites = plan.replicatedWrites;
    result.totalBufferBytes = plan.totalBufferBytes;
    result.stages = plan.stages;

    // Idle integral: allocated crossbars of each stage times the time
    // they spend waiting (makespan minus their busy time).
    double idleCrossbarNs = 0.0;
    for (size_t i = 0; i < plan.stages.size(); ++i) {
        idleCrossbarNs += static_cast<double>(plan.stageCrossbars[i]) *
                          schedule.idleFraction[i] *
                          schedule.makespanNs;
    }
    result.energyPj = reram::EnergyModel(hw).totalEnergyPj(
        schedule.makespanNs, plan.totalActivations,
        plan.replicatedWrites, plan.totalBufferBytes, idleCrossbarNs);

    if (plan.faultOn) {
        result.makespanNs += plan.repairPlan.remapStallNs;
        result.repairPolicy = plan.repairPlan.policy;
        result.rawFaultRate = plan.repairPlan.rawCellFaultRate;
        result.residualFaultRate =
            plan.repairPlan.residualCellFaultRate;
        result.wearLifetimeFraction = plan.wearLifetimeFraction;
        result.wornRowFraction = plan.wornRowFraction;
        result.writeAmplification =
            plan.repairPlan.writeAmplification;
        result.repairStallNs = plan.repairPlan.remapStallNs;
        result.writeExposure = plan.writeExposure;
    }
    return result;
}

Accelerator::Accelerator(const reram::AcceleratorConfig &hw,
                         SystemConfig system)
    : hw_(hw), system_(std::move(system))
{
    hw_.validate();
}

RunResult
Accelerator::run(const gcn::Workload &workload) const
{
    return executePlan(buildPlan(workload, gcn::lazyProfile(workload)),
                       workload);
}

RunResult
Accelerator::run(const gcn::Workload &workload,
                 const gcn::VertexProfile &profile) const
{
    return runWithEstimates(workload, profile, {});
}

RunResult
Accelerator::runWithEstimates(
    const gcn::Workload &workload, const gcn::VertexProfile &profile,
    const std::vector<double> &estimatedStageTimesNs) const
{
    return executePlan(
        buildPlan(workload, profile, estimatedStageTimesNs), workload);
}

StagePlan
Accelerator::buildPlan(
    const gcn::Workload &workload, const gcn::VertexProfile &profile,
    const std::vector<double> &estimatedStageTimesNs) const
{
    return buildPlan(
        workload, [&]() -> const gcn::VertexProfile & { return profile; },
        estimatedStageTimesNs);
}

StagePlan
Accelerator::buildPlan(
    const gcn::Workload &workload, const gcn::ProfileProvider &profile,
    const std::vector<double> &estimatedStageTimesNs) const
{
    // The disabled fault config takes the exact fault-free path (the
    // zero-fault bit-identity tests depend on that); only fault wear
    // reads the per-vertex mapping.
    const bool faultOn = system_.fault.enabled();
    gcn::MappingArtifacts artifacts;
    const StageCosts costs =
        gcnTrainCosts(workload, profile, system_.policy, hw_,
                      faultOn ? &artifacts : nullptr);
    if (!faultOn)
        return allocatePlan(costs, system_, hw_, nullptr,
                            estimatedStageTimesNs);

    // Endurance wear from the schedule's actual update traffic: ISU's
    // selective updating directly reduces per-row wear.
    fault::WearState wear;
    if (!artifacts.assignment.groupOf.empty()) {
        mapping::SelectiveUpdateParams sel;
        sel.theta = system_.policy.theta;
        sel.coldPeriod = system_.policy.coldPeriod;
        wear = fault::computeWear(artifacts.assignment,
                                  artifacts.important, sel,
                                  workload.epochs,
                                  hw_.chip.writeEndurance);
    } else {
        wear = fault::approxWear(artifacts.updateFraction,
                                 workload.epochs,
                                 hw_.chip.writeEndurance);
    }

    // Per-group fault severity + fault-aware remap: steer the heavy
    // write-load groups onto the healthiest hardware.
    const double cellRate = system_.fault.params.stuckOnRate +
                            system_.fault.params.stuckOffRate +
                            wear.wornRowFraction;
    const uint32_t numGroups = artifacts.assignment.numGroups > 0
                                   ? artifacts.assignment.numGroups
                                   : 64u;
    const auto scores = fault::groupFaultScores(
        numGroups, cellRate, system_.fault.params.seed);
    std::vector<double> load = wear.groupWritesPerEpoch;
    if (load.empty())
        load.assign(numGroups, 1.0);
    const auto physicalOf = mapping::remapGroupsByHealth(load, scores);
    std::vector<double> seenScores(numGroups);
    for (uint32_t g = 0; g < numGroups; ++g)
        seenScores[g] = scores[physicalOf[g]];
    const double exposure = fault::writeExposure(load, seenScores);

    fault::RepairContext repairCtx;
    repairCtx.params = system_.fault.params;
    repairCtx.spareRowFraction = system_.fault.spareRowFraction;
    repairCtx.refreshPeriodMb = system_.fault.refreshPeriodMb;
    repairCtx.rows = hw_.crossbar.rows;
    repairCtx.cols = hw_.crossbar.cols;
    repairCtx.writeLatencyNs = hw_.crossbar.writeLatencyNs;
    repairCtx.wornRowFraction = wear.wornRowFraction;
    repairCtx.writeExposure = exposure;
    repairCtx.totalMicroBatches = costs.totalMicroBatches;
    const fault::RepairPlan repair =
        fault::repairPolicyFor(system_.fault.repair).plan(repairCtx);

    StagePlan out = allocatePlan(costs, system_, hw_, &repair,
                                 estimatedStageTimesNs);
    out.wearLifetimeFraction = wear.lifetimeFraction;
    out.wornRowFraction = wear.wornRowFraction;
    out.writeExposure = exposure;
    return out;
}

RunResult
Accelerator::executePlan(const StagePlan &plan,
                         const gcn::Workload &workload) const
{
    GOPIM_ASSERT(plan.label == workload.dataset.name,
                 "plan for '", plan.label, "' executed on workload '",
                 workload.dataset.name, "'");
    return core::executePlan(plan, system_, hw_);
}

} // namespace gopim::core
