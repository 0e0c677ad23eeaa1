#include "core/harness.hh"

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/report.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "sim/engine.hh"
#include "sim/replay.hh"

namespace gopim::core {

ComparisonHarness::ComparisonHarness(reram::AcceleratorConfig hw,
                                     sim::SimContext simContext)
    : hw_(hw), sim_(std::move(simContext)),
      lowerCache_(std::make_shared<sim::LowerMemo>()),
      timelineCache_(std::make_shared<sim::TimelineMemo>())
{
    hw_.validate();
}

void
ComparisonHarness::setSimContext(sim::SimContext simContext)
{
    sim_ = std::move(simContext);
}

void
ComparisonHarness::setFaultConfig(fault::FaultConfig faultConfig)
{
    fault_ = faultConfig;
}

SystemConfig
ComparisonHarness::configureSystem(SystemKind kind) const
{
    SystemConfig system = makeSystem(kind);
    system.sim = sim_;
    system.fault = fault_;
    // The replay lower-cache outlives setSimContext on purpose: the
    // schedules it memoizes are keyed by their full (seed-zeroed)
    // descriptor, which the sim context cannot alias.
    if (!system.sim.lowerCache)
        system.sim.lowerCache = lowerCache_;
    // Same for the timeline memo: its key packs the event knobs and
    // the request bit for bit, and scheduleEventPath refuses to use
    // it at all when the timeline is seed-dependent.
    if (!system.sim.timelineCache)
        system.sim.timelineCache = timelineCache_;
    return system;
}

RunResult
ComparisonHarness::runOne(SystemKind kind,
                          const gcn::Workload &workload) const
{
    Accelerator accel(hw_, configureSystem(kind));
    return accel.run(workload);
}

RunResult
ComparisonHarness::runOne(SystemKind kind,
                          const gcn::Workload &workload,
                          const gcn::VertexProfile &profile) const
{
    Accelerator accel(hw_, configureSystem(kind));
    return accel.run(workload, profile);
}

std::vector<ComparisonRow>
ComparisonHarness::runGrid(
    const std::vector<SystemKind> &systems,
    const std::vector<std::string> &datasetNames, size_t jobs) const
{
    const size_t numDatasets = datasetNames.size();
    const size_t numSystems = systems.size();

    // Workloads and vertex profiles are built once per dataset and
    // shared read-only by that dataset's cells (profile building
    // dominates setup cost for the large catalog entries), and they
    // persist across runGrid calls. Profiles stay eager although only
    // ranking policies read them: every paper grid has a ranking
    // system, and building them here runs in parallel over datasets
    // instead of inside one cell next to that cell's ranking.
    std::vector<std::shared_ptr<const DatasetEntry>> entries(
        numDatasets);
    parallelFor(numDatasets, jobs, [&](size_t d) {
        entries[d] = datasets_.getOrBuild(datasetNames[d], [&] {
            DatasetEntry entry;
            entry.workload = gcn::Workload::paperDefault(datasetNames[d]);
            entry.profile = gcn::VertexProfile::build(
                entry.workload.dataset, entry.workload.seed);
            return entry;
        });
    });

    // Every (dataset, system) cell is independent and stateless:
    // results land in their preassigned slot, so ordering — and
    // therefore every derived table — is identical for any job
    // count.
    std::vector<ComparisonRow> rows(numDatasets);
    for (size_t d = 0; d < numDatasets; ++d) {
        rows[d].datasetName = datasetNames[d];
        rows[d].results.resize(numSystems);
    }
    {
        obs::ProfileSpan span(sim_.metrics.get(), "harness.grid");
        parallelFor(numDatasets * numSystems, jobs, [&](size_t cell) {
            const size_t d = cell / numSystems;
            const size_t s = cell % numSystems;
            const Accelerator accel(hw_, configureSystem(systems[s]));
            const DatasetEntry &entry = *entries[d];
            // The full canonical prefix is compared inside the
            // fingerprint bucket, so a collision between two configs
            // cannot alias plans.
            const auto plan = planCache_.getOrBuild(
                planConfigPrefix(accel.system(), hw_, entry.workload)
                    .canonical(),
                [&] {
                    return accel.buildPlan(entry.workload, entry.profile);
                });
            rows[d].results[s] = accel.executePlan(*plan, entry.workload);
        });
    }
    if (sim_.metrics) {
        obs::MetricsRegistry &m = *sim_.metrics;
        m.counter("harness.grid.count").add();
        m.counter("harness.grid.cells")
            .add(static_cast<uint64_t>(numDatasets) * numSystems);
        const ThreadPool &pool = processPool();
        obs::recordPoolUtilization(m, "harness.pool",
                                   pool.threadCount(),
                                   pool.tasksSubmitted(),
                                   pool.tasksCompleted(),
                                   pool.maxQueueDepth());
    }
    return rows;
}

Table
ComparisonHarness::speedupTable(
    const std::string &title,
    const std::vector<ComparisonRow> &rows) const
{
    GOPIM_ASSERT(!rows.empty(), "empty comparison");
    std::vector<std::string> headers = {"dataset"};
    for (const auto &r : rows.front().results)
        headers.push_back(r.systemName);

    Table table(title, headers);
    for (const auto &row : rows) {
        auto &t = table.row().cell(row.datasetName);
        const RunResult &ref = row.results.front();
        for (const auto &result : row.results) {
            const double speedup = result.speedupOver(ref);
            t.cell(speedup, speedup < 100.0 ? 2 : 1);
        }
    }
    return table;
}

Table
ComparisonHarness::energyTable(
    const std::string &title,
    const std::vector<ComparisonRow> &rows) const
{
    GOPIM_ASSERT(!rows.empty(), "empty comparison");
    std::vector<std::string> headers = {"dataset"};
    for (const auto &r : rows.front().results)
        headers.push_back(r.systemName);

    Table table(title, headers);
    for (const auto &row : rows) {
        auto &t = table.row().cell(row.datasetName);
        const RunResult &ref = row.results.front();
        for (const auto &result : row.results)
            t.cell(result.energySavingOver(ref), 2);
    }
    return table;
}

} // namespace gopim::core
