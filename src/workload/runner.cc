#include "workload/runner.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/report.hh"
#include "obs/metrics.hh"
#include "sim/engine.hh"
#include "sim/trace.hh"

namespace gopim::workload {

alloc::AllocationProblem
allocationProblem(const StagePlan &plan,
                  const reram::AcceleratorConfig &hw)
{
    plan.validate();
    alloc::AllocationProblem problem;
    problem.stages = plan.stages;
    problem.numMicroBatches = plan.microBatchesPerEpoch;
    problem.maxUsefulReplicas = plan.maxUsefulReplicas;
    problem.scalableTimesNs = plan.scalableTimesNs;
    problem.fixedTimesNs = plan.fixedTimesNs;
    problem.crossbarsPerReplica = plan.crossbarsPerReplica;
    uint64_t mandatory = 0;
    for (const uint64_t xbars : plan.crossbarsPerReplica)
        mandatory += xbars;
    const uint64_t budget = hw.totalCrossbars();
    if (mandatory > budget) {
        fatal("workload '", plan.label, "' does not fit: needs ",
              mandatory, " crossbars for single replicas, chip has ",
              budget);
    }
    problem.spareCrossbars = budget - mandatory;
    return problem;
}

std::vector<double>
perturbedEstimates(const StagePlan &plan, double relErr, uint64_t seed)
{
    GOPIM_ASSERT(relErr >= 0.0 && relErr < 1.0,
                 "relative estimate error must lie in [0, 1)");
    Rng rng(seed);
    std::vector<double> estimates;
    estimates.reserve(plan.numStages());
    for (size_t i = 0; i < plan.numStages(); ++i) {
        const double exact =
            plan.scalableTimesNs[i] + plan.fixedTimesNs[i];
        estimates.push_back(exact *
                            (1.0 + rng.uniform(-relErr, relErr)));
    }
    return estimates;
}

core::RunResult
runPlan(const StagePlan &plan, const core::SystemConfig &system,
        const reram::AcceleratorConfig &hw,
        const std::vector<double> &estimatedStageTimesNs)
{
    alloc::AllocationProblem problem = allocationProblem(plan, hw);
    const uint64_t mandatory = hw.totalCrossbars() -
                               problem.spareCrossbars;

    // Estimates steer only the allocation decision; the final stage
    // times below always come from the exact plan (the same contract
    // as core::Accelerator::runWithEstimates).
    if (!estimatedStageTimesNs.empty()) {
        GOPIM_ASSERT(estimatedStageTimesNs.size() == plan.numStages(),
                     "estimate vector size mismatch");
        for (size_t i = 0; i < plan.numStages(); ++i) {
            const double total =
                plan.scalableTimesNs[i] + plan.fixedTimesNs[i];
            const double ratio =
                total > 0.0 ? estimatedStageTimesNs[i] / total : 1.0;
            problem.scalableTimesNs[i] *= ratio;
            problem.fixedTimesNs[i] *= ratio;
        }
    }

    alloc::AllocationResult allocation;
    if (system.allocator) {
        allocation = system.allocator->allocate(problem);
    } else {
        allocation.replicas.assign(plan.numStages(), 1);
        allocation.totalCrossbars = mandatory;
    }

    std::vector<double> stageTimes(plan.numStages());
    std::vector<uint32_t> effectiveReplicas(plan.numStages());
    for (size_t i = 0; i < plan.numStages(); ++i) {
        const uint32_t effective = std::min(
            allocation.replicas[i], problem.maxUsefulReplicas);
        effectiveReplicas[i] = effective;
        stageTimes[i] = plan.fixedTimesNs[i] +
                        plan.scalableTimesNs[i] /
                            static_cast<double>(effective);
    }

    sim::SimContext ctx = system.sim;
    ctx.recordWindows = ctx.recordWindows || ctx.traceSink != nullptr;
    if (ctx.isaRecorder)
        ctx.isaStreamLabel = system.name + " on " + plan.label;

    sim::ScheduleRequest request;
    request.stageTimesNs = stageTimes;
    request.replicas = effectiveReplicas;
    request.totalMicroBatches = plan.totalMicroBatches;
    request.microBatchesPerBatch = system.microBatchesPerBatch;
    switch (system.pipelineMode) {
    case core::PipelineMode::Serial:
        request.regime = sim::Regime::Serial;
        break;
    case core::PipelineMode::IntraBatch:
        request.regime = sim::Regime::IntraBatch;
        break;
    case core::PipelineMode::IntraInterBatch:
        request.regime = plan.regime;
        break;
    }
    if (ctx.event.replicasAsServers) {
        for (size_t i = 0; i < plan.numStages(); ++i)
            request.stageTimesNs[i] =
                plan.fixedTimesNs[i] + plan.scalableTimesNs[i];
    }

    const sim::ScheduleEngine &engine = sim::resolveEngine(ctx);
    const sim::StageTimeline schedule = engine.schedule(request, ctx);
    if (ctx.traceSink)
        ctx.traceSink->record({system.name, plan.label, engine.name()},
                              plan.stages, schedule);

    if (ctx.metrics) {
        obs::MetricsRegistry &m = *ctx.metrics;
        m.counter("workload.run.count").add();
        m.counter("alloc.crossbars_allocated")
            .add(allocation.totalCrossbars);
        auto &replicasHist = m.histogram(
            "alloc.replicas_per_stage",
            obs::Histogram::exponentialBounds(1.0, 2.0, 12));
        for (uint32_t r : allocation.replicas)
            replicasHist.observe(static_cast<double>(r));
    }

    uint64_t activations = 0;
    uint64_t bufferBytes = 0;
    uint64_t replicatedWrites = 0;
    for (size_t i = 0; i < plan.numStages(); ++i) {
        activations += plan.activationsPerMb[i] *
                       plan.totalMicroBatches;
        bufferBytes += plan.bufferBytesPerMb[i] *
                       plan.totalMicroBatches;
        // Replicated regions receive every write in parallel: wear and
        // energy multiply, the latency does not.
        replicatedWrites += plan.rowWritesPerMb[i] *
                            plan.totalMicroBatches *
                            allocation.replicas[i];
    }

    core::RunResult result;
    result.systemName = system.name;
    result.datasetName = plan.label;
    result.makespanNs = schedule.makespanNs;
    result.replicas = allocation.replicas;
    result.totalCrossbars = allocation.totalCrossbars;
    result.stageCrossbars.resize(plan.numStages());
    for (size_t i = 0; i < plan.numStages(); ++i)
        result.stageCrossbars[i] =
            static_cast<uint64_t>(allocation.replicas[i]) *
            plan.crossbarsPerReplica[i];
    result.stageTimesNs = stageTimes;
    result.idleFraction = schedule.idleFraction;
    result.avgIdleFraction = schedule.avgIdleFraction();
    result.engineName = engine.name();
    result.blockedNs = schedule.blockedNs;
    result.eventsProcessed = schedule.eventsProcessed;
    result.totalActivations = activations;
    result.totalRowWrites = replicatedWrites;
    result.totalBufferBytes = bufferBytes;
    result.stages = plan.stages;

    double idleCrossbarNs = 0.0;
    for (size_t i = 0; i < plan.numStages(); ++i) {
        idleCrossbarNs +=
            static_cast<double>(result.stageCrossbars[i]) *
            schedule.idleFraction[i] * schedule.makespanNs;
    }
    result.energyPj = reram::EnergyModel(hw).totalEnergyPj(
        schedule.makespanNs, activations, replicatedWrites,
        bufferBytes, idleCrossbarNs);
    return result;
}

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
          const reram::AcceleratorConfig &hw,
          const std::vector<double> &estimatedStageTimesNs,
          PlanMemo *plans)
{
    const WorkloadFamily &family = familyFor(spec.family);
    if (const std::string problem = family.validateSpec(spec);
        !problem.empty())
        fatal(family.name(), ": ", problem);
    const auto build = [&] { return family.plan(spec, hw); };
    const auto plan =
        plans ? plans->getOrBuild(familyPlanKey(spec, hw), build)
              : std::make_shared<const StagePlan>(build());
    core::RunResult result =
        runPlan(*plan, system, hw, estimatedStageTimesNs);
    result.datasetName = spec.dataset;
    return result;
}

} // namespace gopim::workload
