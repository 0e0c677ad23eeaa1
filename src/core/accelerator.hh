/**
 * @file
 * The one run path every workload takes, and the gcn-train
 * accelerator on top of it. A run prices its pipeline stages
 * (StageCosts), allocates replicas under the chip budget
 * (allocatePlan, Algorithm 1 plus the fault hooks), then pipelines the
 * plan on the configured engine and accounts energy (executePlan).
 * gcnTrainCosts prices the paper's GCN-training stages; the workload
 * families (workload/family.hh) price theirs and run through the same
 * pair. Accelerator is the gcn-train adapter: it adds fault, wear and
 * repair planning and keeps the (workload, profile) signatures.
 */

#ifndef GOPIM_CORE_ACCELERATOR_HH
#define GOPIM_CORE_ACCELERATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.hh"
#include "core/result.hh"
#include "fault/model.hh"
#include "fault/repair.hh"
#include "gcn/time_model.hh"
#include "gcn/workload.hh"
#include "pipeline/stage.hh"
#include "reram/config.hh"
#include "sim/engine.hh"

namespace gopim::core {

/** The pipelining regime, defined in pipeline/schedule.hh. */
using PipelineMode = pipeline::Regime;

/** Full system description: policy + allocator + pipelining. */
struct SystemConfig
{
    std::string name;
    gcn::ExecutionPolicy policy;
    pipeline::Regime pipelineMode = pipeline::Regime::Serial;
    /** Replica allocator; null means single replicas everywhere. */
    std::shared_ptr<const alloc::Allocator> allocator;
    /** Micro-batches per batch for intra-batch-only draining. */
    uint32_t microBatchesPerBatch = 8;
    /**
     * Timing backend selection, seed, event-engine knobs, and trace
     * sink. Copied per run, so the scheduling path stays stateless
     * and grid cells can execute on a thread pool.
     */
    sim::SimContext sim;
    /**
     * Fault injection / endurance wear / repair configuration.
     * Disabled by default; when disabled the run takes the exact
     * fault-free code path (bit-identical results).
     */
    fault::FaultConfig fault;
};

/**
 * A workload's per-stage costs before allocation, per micro-batch and
 * in pipeline-stage order: what a workload family compiles a spec
 * into and what allocatePlan consumes.
 */
struct StageCosts
{
    /** Names the run on ISA streams, traces and errors ("ddi"). */
    std::string label;
    std::vector<pipeline::Stage> stages;
    /** Replica-divisible compute time per stage (ns/micro-batch). */
    std::vector<double> scalableTimesNs;
    /** Fixed time not reduced by replication (ns/micro-batch). */
    std::vector<double> fixedTimesNs;
    /** Crossbars one replica of each stage occupies. */
    std::vector<uint64_t> crossbarsPerReplica;
    /** Energy event counts per micro-batch, per stage. */
    std::vector<uint64_t> activationsPerMb;
    std::vector<uint64_t> rowWritesPerMb;
    std::vector<uint64_t> bufferBytesPerMb;
    uint32_t totalMicroBatches = 1;
    /** Micro-batches covering the input once (allocator horizon). */
    uint32_t microBatchesPerEpoch = 1;
    /**
     * Effective-parallelism ceiling (required, > 0): a stage has at
     * most a few micro-batches' worth of inputs in flight, so
     * replicas beyond this cannot shorten it.
     */
    uint32_t maxUsefulReplicas = 0;

    size_t numStages() const { return stages.size(); }

    /** Panics on inconsistent array sizes, non-finite times, a
     *  zero-crossbar stage or a missing replica ceiling. */
    void validate() const;
};

/**
 * Price the GCN-training stages of `workload` under `policy`: map the
 * vertices (gcn::MappingArtifacts), cost every stage
 * (StageTimeModel::allCosts) and label the costs with the dataset
 * name. `artifacts`, when given, receives the full per-vertex mapping
 * for fault planning. Without it, a policy that does not rank
 * (ExecutionPolicy::needsDegreeProfile) is mapped by
 * MappingArtifacts::fullUpdateApprox, which gives the same costs, and
 * `profile` is never called.
 */
StageCosts gcnTrainCosts(const gcn::Workload &workload,
                         const gcn::ProfileProvider &profile,
                         const gcn::ExecutionPolicy &policy,
                         const reram::AcceleratorConfig &hw,
                         gcn::MappingArtifacts *artifacts = nullptr);

/**
 * The sim-independent half of a run, fully planned: stage chain,
 * fault/wear/repair decisions, replica allocation, final stage
 * times, and the energy event counts. Everything here is a pure
 * function of (hardware, system-minus-sim, workload, profile) —
 * exactly the inputs core::planConfigPrefix canonicalizes — so a
 * plan built once can be re-executed under many sim contexts
 * (different engines/seeds) with bit-identical results to planning
 * from scratch each time. That is the contract the memoized runGrid
 * path and serve's plan memo (core::PlanMemo) rely on.
 */
struct StagePlan
{
    /** The costs' label (StageCosts::label): names the run. */
    std::string label;
    std::vector<pipeline::Stage> stages;
    uint32_t totalMicroBatches = 0;

    /** Fault planning outcome (defaults when faults are disabled). */
    bool faultOn = false;
    fault::RepairPlan repairPlan;
    double wearLifetimeFraction = 0.0;
    double wornRowFraction = 0.0;
    double writeExposure = 0.0;

    /** Replica allocation. */
    std::vector<uint32_t> replicas;
    std::vector<uint32_t> effectiveReplicas;
    uint64_t totalCrossbars = 0;
    std::vector<uint64_t> stageCrossbars;

    /** Per-stage service times with replication folded in. */
    std::vector<double> stageTimesNs;
    /** Single-replica times for the replicas-as-servers event mode. */
    std::vector<double> serverStageTimesNs;

    /** Energy event totals over the whole run. */
    uint64_t totalActivations = 0;
    uint64_t totalBufferBytes = 0;
    uint64_t replicatedWrites = 0;
};

/**
 * Allocate replicas for `costs` under `system`'s allocator (single
 * replicas when it has none) on `hw`'s crossbar budget, and fold the
 * allocation into final stage times and energy event totals; the plan
 * keeps the costs' label. fatal()s
 * when single replicas of every stage exceed the budget.
 *
 * `estimatedStageTimesNs`, when non-empty, steers only the allocation
 * decision (scalable and fixed parts keep their modeled proportions
 * under the estimated totals); final times stay exact. `repair`, when
 * given, applies the fault hooks: overhead-inflated crossbars for the
 * allocation, write-amplified fixed times and writes, and refresh
 * writes.
 */
StagePlan allocatePlan(const StageCosts &costs, const SystemConfig &system,
                       const reram::AcceleratorConfig &hw,
                       const fault::RepairPlan *repair = nullptr,
                       const std::vector<double> &estimatedStageTimesNs = {});

/**
 * Time an allocated plan on `system`'s sim context (its pipelining
 * regime and engine, ISA recording and trace sink riding along),
 * record the alloc and fault metrics, and account energy. The plan's
 * label names the run: the result's dataset, the trace's dataset
 * track and the ISA stream label ("<system> on <label>").
 */
RunResult executePlan(const StagePlan &plan, const SystemConfig &system,
                      const reram::AcceleratorConfig &hw);

/** A configured accelerator ready to run GCN-training workloads. */
class Accelerator
{
  public:
    Accelerator(const reram::AcceleratorConfig &hw, SystemConfig system);

    /**
     * Run a workload end to end: cost the stages (building the vertex
     * profile only if planning reads it), allocate replicas, schedule
     * the pipeline, and account time and energy.
     */
    RunResult run(const gcn::Workload &workload) const;

    /** Run with a pre-built vertex profile (reuse across systems). */
    RunResult run(const gcn::Workload &workload,
                  const gcn::VertexProfile &profile) const;

    /**
     * Run, but let the allocator see externally estimated stage times
     * instead of the model's exact ones (the ML-vs-profiling study of
     * Table VII). The final schedule still uses exact times: a wrong
     * estimate costs performance only through worse allocation.
     */
    RunResult runWithEstimates(
        const gcn::Workload &workload,
        const gcn::VertexProfile &profile,
        const std::vector<double> &estimatedStageTimesNs) const;

    /**
     * The planning half of a run: gcnTrainCosts, fault planning,
     * allocatePlan. Depends on everything EXCEPT the sim context, so
     * the result can be cached across engine/seed changes (StagePlan).
     * `profile` is called at most once, and only when the policy
     * ranks vertices or fault planning needs the per-vertex mapping.
     */
    StagePlan buildPlan(
        const gcn::Workload &workload,
        const gcn::ProfileProvider &profile,
        const std::vector<double> &estimatedStageTimesNs = {}) const;

    /** buildPlan with a pre-built vertex profile. */
    StagePlan buildPlan(
        const gcn::Workload &workload,
        const gcn::VertexProfile &profile,
        const std::vector<double> &estimatedStageTimesNs = {}) const;

    /**
     * The scheduling half: core::executePlan. run(w, p) is exactly
     * executePlan(buildPlan(w, p), w); callers may only pass plans
     * built by an Accelerator with the same hardware, workload, and
     * sim-independent system configuration. Panics when the plan's
     * label is not the workload's dataset name.
     */
    RunResult executePlan(const StagePlan &plan,
                          const gcn::Workload &workload) const;

    const SystemConfig &system() const { return system_; }
    const reram::AcceleratorConfig &hardware() const { return hw_; }

  private:
    reram::AcceleratorConfig hw_;
    SystemConfig system_;
};

} // namespace gopim::core

#endif // GOPIM_CORE_ACCELERATOR_HH
