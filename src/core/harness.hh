/**
 * @file
 * Comparison harness: runs named systems over datasets and produces
 * the normalized speedup/energy tables the paper's evaluation reports.
 */

#ifndef GOPIM_CORE_HARNESS_HH
#define GOPIM_CORE_HARNESS_HH

#include <memory>
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

/**
 * Allocated, sim-independent StagePlans keyed by a canonical plan
 * config: planConfigPrefix() in the harness, the same prefix plus the
 * workload family in serve (serve/request.cc).
 */
using PlanMemo = MemoTable<StagePlan>;

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
     * Plan-memo statistics (hits/misses/size) for tests/benches.
     * runGrid memoizes across calls: cells sharing a sim-independent
     * prefix (core::planConfigPrefix) reuse one StagePlan, each
     * dataset's workload and profile are built once, and
     * seed-independent event timelines are reused (sim::TimelineMemo,
     * keyed by the schedule desc's canonical bytes without seed and
     * write fraction). All are unbounded: a harness sweeps a fixed
     * grid. They survive setSimContext (the plan key excludes the sim
     * context; the timeline key carries every desc field timing
     * reads) and setFaultConfig changes the plan key, so results stay
     * bit-identical to plain Accelerator runs (pinned by
     * tests/test_core.cc).
     */
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

    reram::AcceleratorConfig hw_;
    sim::SimContext sim_;
    fault::FaultConfig fault_;
    mutable PlanMemo planCache_;
    std::shared_ptr<sim::TimelineMemo> timelineCache_;
    /** Keyed by name: paper-default workloads are a function of it. */
    mutable MemoTable<DatasetEntry> datasets_;
};

} // namespace gopim::core

#endif // GOPIM_CORE_HARNESS_HH
