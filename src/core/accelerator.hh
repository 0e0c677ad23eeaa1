/**
 * @file
 * The top-level accelerator: composes the ReRAM substrate, the stage
 * time model, a mapping/selective-update policy, a replica allocator,
 * and a pipelining regime into a runnable system that produces time,
 * energy, and utilization results for a workload.
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
#include "reram/energy.hh"
#include "sim/context.hh"

namespace gopim::core {

/** Pipelining regime of a system. */
enum class PipelineMode
{
    Serial,         ///< no overlap at all
    IntraBatch,     ///< pipeline within a batch, drain between batches
    IntraInterBatch ///< pipeline across batch boundaries too (GoPIM)
};

/** Full system description: policy + allocator + pipelining. */
struct SystemConfig
{
    std::string name;
    gcn::ExecutionPolicy policy;
    PipelineMode pipelineMode = PipelineMode::Serial;
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
 * The sim-independent half of a run, fully planned: stage chain,
 * fault/wear/repair decisions, replica allocation, final stage
 * times, and the energy event counts. Everything here is a pure
 * function of (hardware, system-minus-sim, workload, profile) —
 * exactly the inputs core::planConfigPrefix canonicalizes — so a
 * plan built once can be re-executed under many sim contexts
 * (different engines/seeds) with bit-identical results to planning
 * from scratch each time. That is the contract the memoized
 * runGrid path (core::PlanMemo) relies on.
 */
struct StagePlan
{
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

/** A configured accelerator ready to run workloads. */
class Accelerator
{
  public:
    Accelerator(const reram::AcceleratorConfig &hw, SystemConfig system);

    /**
     * Run a workload end to end: build the vertex profile, cost the
     * stages, allocate replicas, schedule the pipeline, and account
     * time and energy.
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
     * The planning half of a run: map, cost, plan repairs, allocate
     * replicas. Depends on everything EXCEPT the sim context, so the
     * result can be cached across engine/seed changes (StagePlan).
     */
    StagePlan buildPlan(
        const gcn::Workload &workload,
        const gcn::VertexProfile &profile,
        const std::vector<double> &estimatedStageTimesNs = {}) const;

    /**
     * The scheduling half: time a prebuilt plan on this system's sim
     * context and account energy. run(w, p) is exactly
     * executePlan(buildPlan(w, p), w); callers may only pass plans
     * built by an Accelerator with the same hardware, workload, and
     * sim-independent system configuration.
     */
    RunResult executePlan(const StagePlan &plan,
                          const gcn::Workload &workload) const;

    const SystemConfig &system() const { return system_; }
    const reram::AcceleratorConfig &hardware() const { return hw_; }

  private:
    reram::AcceleratorConfig hw_;
    SystemConfig system_;
    gcn::StageTimeModel timeModel_;
    reram::EnergyModel energyModel_;
};

} // namespace gopim::core

#endif // GOPIM_CORE_ACCELERATOR_HH
