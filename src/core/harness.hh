/**
 * @file
 * Comparison harness: runs named systems over datasets and produces
 * the normalized speedup/energy tables the paper's evaluation reports.
 */

#ifndef GOPIM_CORE_HARNESS_HH
#define GOPIM_CORE_HARNESS_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/memo_table.hh"
#include "common/table.hh"
#include "core/accelerator.hh"
#include "core/result.hh"
#include "core/systems.hh"
#include "fault/model.hh"
#include "gcn/workload.hh"
#include "reram/config.hh"
#include "sim/context.hh"

namespace gopim::core {

/** Sim-independent StagePlans keyed by planConfigPrefix(). */
using PlanMemo = MemoTable<StagePlan>;

/**
 * accel.buildPlan(workload, profile()) through `memo` (null = build
 * every time). The key is planConfigPrefix(accel.system(),
 * accel.hardware(), workload).canonical() and its FNV-1a fingerprint
 * buckets it. `profile` is called only on a miss, so a hit skips
 * profile build, mapping, costing, fault planning and allocation.
 */
std::shared_ptr<const StagePlan>
memoizedPlan(PlanMemo *memo, const Accelerator &accel,
             const gcn::Workload &workload,
             const std::function<const gcn::VertexProfile &()> &profile);

/** Results of one dataset across several systems. */
struct ComparisonRow
{
    std::string datasetName;
    std::vector<RunResult> results; ///< same order as the system list
};

/** Runs system x dataset grids and formats results. */
class ComparisonHarness
{
  public:
    explicit ComparisonHarness(
        reram::AcceleratorConfig hw =
            reram::AcceleratorConfig::paperDefault(),
        sim::SimContext simContext = {});

    /** Timing backend + knobs applied to every system run here. */
    void setSimContext(sim::SimContext simContext);
    const sim::SimContext &simContext() const { return sim_; }

    /** Fault/repair configuration applied to every system run here. */
    void setFaultConfig(fault::FaultConfig faultConfig);
    const fault::FaultConfig &faultConfig() const { return fault_; }

    /**
     * Memoized re-simulation across runGrid calls (on by default).
     * Grid cells that share a sim-independent config prefix
     * (core::planConfigPrefix) reuse one StagePlan, dataset
     * workloads/profiles are built once per dataset name, and the
     * replay engine's self-replay mode skips re-lowering schedules
     * it has seen; the event path memoizes whole timelines when the
     * schedule is provably seed-independent (sim::TimelineMemo).
     * Both plan and timeline memos are unbounded MemoTables: a
     * harness sweeps a fixed grid, so they hold one entry per cell.
     * setSimContext deliberately preserves all these caches: the sim
     * context is exactly what the cache keys exclude (or pack
     * explicitly, for the timeline memo's event knobs), so sweeping
     * engines/seeds over one harness hits.
     * Results are bit-identical with memoization on or off (pinned
     * by tests/test_core.cc); turn it off to benchmark the uncached
     * path. setFaultConfig changes the plan key, so stale hits are
     * impossible — but the dataset cache it cannot affect at all.
     */
    void setMemoize(bool on) { memoize_ = on; }
    bool memoize() const { return memoize_; }

    /** Plan-memo statistics (hits/misses/size) for tests/benches. */
    const PlanMemo &planCache() const { return planCache_; }

    /** Run one system on one workload. */
    RunResult runOne(SystemKind kind, const gcn::Workload &workload) const;

    /** Run one system with a pre-built profile (reuse across runs). */
    RunResult runOne(SystemKind kind, const gcn::Workload &workload,
                     const gcn::VertexProfile &profile) const;

    /**
     * Run all `systems` on each dataset's paper-default workload.
     * The vertex profile is built once per dataset and shared.
     *
     * `jobs` spreads the (dataset x system) cells over a thread
     * pool: 1 runs serially on the caller's thread, 0 uses all
     * hardware threads. Every cell is stateless and deterministic,
     * so the result tables are bit-identical for any job count.
     */
    std::vector<ComparisonRow> runGrid(
        const std::vector<SystemKind> &systems,
        const std::vector<std::string> &datasetNames,
        size_t jobs = 1) const;

    /** Speedup table normalized to the first system in each row. */
    Table speedupTable(const std::string &title,
                       const std::vector<ComparisonRow> &rows) const;

    /** Energy-saving table normalized to the first system. */
    Table energyTable(const std::string &title,
                      const std::vector<ComparisonRow> &rows) const;

    const reram::AcceleratorConfig &hardware() const { return hw_; }

  private:
    /** makeSystem(kind) with this harness's sim context applied. */
    SystemConfig configureSystem(SystemKind kind) const;

    /** One dataset's shared inputs, built once per dataset name. */
    struct DatasetEntry
    {
        gcn::Workload workload;
        gcn::VertexProfile profile;
    };

    /**
     * The paper-default workload + vertex profile for `name`, via
     * the dataset cache when memoization is on. Safe to key by name
     * because runGrid only ever runs paper-default workloads, which
     * are a pure function of the name.
     */
    std::shared_ptr<const DatasetEntry>
    datasetEntry(const std::string &name) const;

    /** One grid cell through the plan cache (memoize_ is on). */
    RunResult runMemoized(const Accelerator &accel,
                          const gcn::Workload &workload,
                          const gcn::VertexProfile &profile) const;

    reram::AcceleratorConfig hw_;
    sim::SimContext sim_;
    fault::FaultConfig fault_;
    bool memoize_ = true;
    mutable PlanMemo planCache_;
    std::shared_ptr<sim::LowerMemo> lowerCache_;
    std::shared_ptr<sim::TimelineMemo> timelineCache_;
    mutable std::mutex datasetMutex_;
    mutable std::map<std::string, std::shared_ptr<const DatasetEntry>>
        datasets_;
};

} // namespace gopim::core

#endif // GOPIM_CORE_HARNESS_HH
