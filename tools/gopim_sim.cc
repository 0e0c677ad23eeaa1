/**
 * @file
 * gopim_sim: command-line driver for the simulator. Runs any of the
 * named systems on any catalog dataset (or a user edge-list file),
 * printing the makespan, energy, allocation, idle profile, and
 * optionally a Gantt chart, CSV row, or Chrome trace — the everyday
 * entry point for downstream users.
 *
 * The timing backend is pluggable: --engine=closed evaluates the
 * paper's Eq. 3-6 closed form, --engine=event runs the discrete-
 * event flow shop (with --buffer-slots / --retry-prob knobs), and
 * --engine=replay times lowered ISA command streams. Streams can be
 * recorded with --isa-trace-out and replayed bit-identically from
 * disk with --isa-trace-in (inspect them with gopim_trace).
 * --grid runs the full Fig. 13 system list over the dataset(s),
 * spread over --jobs worker threads.
 *
 * --workload selects the workload family (gcn-train, gnn-infer with
 * --partition=row|col|nnz, cnn-infer on a named preset); --list-
 * engines / --list-workloads print the registry tables and exit.
 */

#include <algorithm>
#include <iostream>
#include <sstream>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/accelerator.hh"
#include "core/harness.hh"
#include "core/options.hh"
#include "core/report.hh"
#include "core/systems.hh"
#include "gcn/workload.hh"
#include "graph/datasets.hh"
#include "graph/io.hh"
#include "pipeline/gantt.hh"
#include "sim/engine.hh"
#include "workload/cnn_infer.hh"
#include "workload/family.hh"
#include "workload/runner.hh"

namespace {

using namespace gopim;

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** --grid: the Fig. 13 systems x the requested datasets. */
int
runGridMode(const core::ComparisonHarness &harness,
            const std::string &datasetList, size_t jobs, bool csv,
            bool json)
{
    const auto systems = core::figure13Systems();
    const auto rows =
        harness.runGrid(systems, splitCommas(datasetList), jobs);
    if (json) {
        core::writeGridJson(rows, std::cout);
        return 0;
    }
    if (csv) {
        core::writeGridCsv(rows, std::cout);
        return 0;
    }
    harness
        .speedupTable("speedup normalized to " +
                          rows.front().results.front().systemName +
                          " [" +
                          rows.front().results.front().engineName +
                          "]",
                      rows)
        .print(std::cout);
    std::cout << '\n';
    harness.energyTable("energy saving", rows).print(std::cout);
    return 0;
}

/** --list-engines: the timing-backend registry, aliases included. */
int
listEngines()
{
    Table table("registered engines (--engine)",
                {"canonical", "alias", "summary"});
    for (const auto &info : sim::engineRegistry())
        table.row().cell(info.canonical).cell(info.alias).cell(
            info.summary);
    table.print(std::cout);
    return 0;
}

/** --list-workloads: families, partitionings, and CNN presets. */
int
listWorkloads()
{
    Table families("registered workload families (--workload)",
                   {"canonical", "alias", "summary"});
    for (const auto &info : workload::familyRegistry())
        families.row().cell(info.canonical).cell(info.alias).cell(
            info.summary);
    families.print(std::cout);

    std::cout << '\n';
    Table partitions("gnn-infer partitionings (--partition)",
                     {"canonical", "alias", "summary"});
    for (const auto &info : workload::partitionRegistry())
        partitions.row().cell(info.canonical).cell(info.alias).cell(
            info.summary);
    partitions.print(std::cout);

    std::cout << '\n';
    Table presets("cnn-infer presets (--dataset)",
                  {"name", "summary"});
    for (const auto &preset : workload::cnnPresetRegistry())
        presets.row().cell(preset.name).cell(preset.summary);
    presets.print(std::cout);
    return 0;
}

/**
 * --workload=gnn-infer / cnn-infer: compile the family plan and run
 * it under the selected system. Training keeps the legacy
 * core::Accelerator path below, bit-identical to prior releases.
 */
int
runWorkloadMode(const Flags &flags, workload::FamilyKind family,
                const sim::SimContext &ctx)
{
    if (flags.getBool("grid"))
        fatal("--grid supports --workload=gcn-train only (use "
              "bench/ablation_workloads for inference grids)");
    if (!flags.getString("graph").empty())
        fatal("--graph is supported with --workload=gcn-train only");
    if (core::faultConfigFromFlags(flags).enabled())
        fatal("fault injection applies to --workload=gcn-train only");

    workload::WorkloadSpec spec;
    spec.family = family;
    // cnn-infer reads presets, not the graph catalog: substitute its
    // default preset unless the user explicitly picked a dataset.
    spec.dataset = flags.isSet("dataset") || family !=
                           workload::FamilyKind::CnnInfer
                       ? flags.getString("dataset")
                       : workload::defaultCnnPreset();
    spec.partition =
        workload::partitioningFromString(flags.getString("partition"));
    spec.microBatchSize =
        static_cast<uint32_t>(flags.getInt("micro-batch"));
    spec.epochs = static_cast<uint32_t>(flags.getInt("epochs"));
    spec.seed = ctx.seed;

    auto system = core::makeSystem(
        core::systemFromName(flags.getString("system")));
    system.sim = ctx;
    auto baselineSystem = core::makeSystem(
        core::systemFromName(flags.getString("baseline")));
    baselineSystem.sim = ctx;

    const auto hw = reram::AcceleratorConfig::paperDefault();
    const auto run = workload::runFamily(spec, system, hw);
    const auto baseline =
        workload::runFamily(spec, baselineSystem, hw);
    core::writeTraceIfRequested(flags, ctx);
    core::writeMetricsIfRequested(flags, ctx);
    core::writeIsaTraceIfRequested(flags, ctx);

    if (flags.getBool("json")) {
        core::writeRunJson(run, std::cout);
        std::cout << "\n";
        return 0;
    }
    if (flags.getBool("csv")) {
        std::cout << "dataset,system,engine,makespan_ns,energy_pj,"
                     "speedup,energy_saving,crossbars,avg_idle\n"
                  << run.datasetName << ',' << run.systemName << ','
                  << run.engineName << ',' << run.makespanNs << ','
                  << run.energyPj << ','
                  << run.speedupOver(baseline) << ','
                  << run.energySavingOver(baseline) << ','
                  << run.totalCrossbars << ','
                  << run.avgIdleFraction << "\n";
        return 0;
    }

    const core::StageCosts plan =
        workload::familyFor(family).plan(spec, hw);
    std::cout << run.systemName << " running " << plan.label << " ("
              << plan.numStages() << " stages, micro-batch "
              << spec.microBatchSize << ", "
              << plan.totalMicroBatches << " micro-batches, "
              << run.engineName << " engine)\n\n";
    std::cout << "makespan      : " << formatTimeNs(run.makespanNs)
              << "\n";
    std::cout << "energy        : " << formatEnergyPj(run.energyPj)
              << "\n";
    std::cout << "vs " << baseline.systemName << "     : "
              << formatRatio(run.speedupOver(baseline))
              << " speedup, "
              << formatRatio(run.energySavingOver(baseline))
              << " energy saving\n";
    std::cout << "crossbars     : " << run.totalCrossbars << " of "
              << hw.totalCrossbars() << "\n";
    std::cout << "avg idle      : " << run.avgIdleFraction * 100.0
              << "%\n\n";

    Table stagesTable("per-stage allocation",
                      {"stage", "replicas", "crossbars", "time/mb",
                       "idle %"});
    for (size_t i = 0; i < run.stages.size(); ++i) {
        stagesTable.row()
            .cell(run.stages[i].label())
            .cell(static_cast<uint64_t>(run.replicas[i]))
            .cell(run.stageCrossbars[i])
            .cell(formatTimeNs(run.stageTimesNs[i]))
            .cell(run.idleFraction[i] * 100.0, 1);
    }
    stagesTable.print(std::cout);

    if (flags.getBool("gantt")) {
        sim::ScheduleRequest request;
        request.stageTimesNs = run.stageTimesNs;
        request.replicas = run.replicas;
        request.regime = sim::Regime::IntraInterBatch;
        request.totalMicroBatches =
            std::min(plan.totalMicroBatches, 16u);
        sim::SimContext ganttCtx = ctx;
        ganttCtx.recordWindows = true;
        ganttCtx.traceSink = nullptr;
        const auto timeline =
            sim::resolveEngine(ganttCtx).schedule(request, ganttCtx);
        std::cout << '\n'
                  << pipeline::renderGantt(
                         run.stages, timeline.toScheduleResult());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags("gopim_sim",
                "run a GoPIM accelerator system on a GCN workload");
    flags.addString("dataset", "ddi",
                    "catalog dataset name (Table III); --grid "
                    "accepts a comma-separated list");
    flags.addString("graph", "",
                    "optional edge-list file overriding the catalog "
                    "graph statistics");
    flags.addString("system", "GoPIM", "system to simulate");
    flags.addString("baseline", "Serial",
                    "system to normalize speedup/energy against");
    flags.addInt("micro-batch", 64, "micro-batch size");
    flags.addInt("epochs", 1, "training epochs simulated");
    flags.addDouble("theta", 0.0,
                    "selective update threshold (0 = adaptive rule)");
    flags.addBool("gantt", false, "render the pipeline Gantt chart");
    flags.addBool("csv", false, "emit one CSV row instead of tables");
    flags.addBool("json", false,
                  "emit the full run result as JSON instead of "
                  "tables");
    flags.addBool("grid", false,
                  "run all Fig. 13 systems over the dataset list");
    flags.addString("workload", "gcn-train",
                    workload::familyFlagHelp());
    flags.addString("partition", "row-split",
                    workload::partitionFlagHelp());
    flags.addBool("list-engines", false,
                  "print the engine registry table and exit");
    flags.addBool("list-workloads", false,
                  "print the workload family registry tables and "
                  "exit");
    core::addSimFlags(flags);
    if (!flags.parse(argc, argv))
        return 0;

    if (flags.getBool("list-engines"))
        return listEngines();
    if (flags.getBool("list-workloads"))
        return listWorkloads();

    const sim::SimContext ctx = core::simContextFromFlags(flags);
    const workload::FamilyKind family =
        workload::familyFromString(flags.getString("workload"));
    if (family != workload::FamilyKind::GcnTrain)
        return runWorkloadMode(flags, family, ctx);
    const fault::FaultConfig faultCfg =
        core::faultConfigFromFlags(flags);
    core::ComparisonHarness harness(
        reram::AcceleratorConfig::paperDefault(), ctx);
    harness.setFaultConfig(faultCfg);

    if (flags.getBool("grid")) {
        const int rc = runGridMode(
            harness, flags.getString("dataset"),
            core::jobsFromFlags(flags), flags.getBool("csv"),
            flags.getBool("json"));
        core::writeTraceIfRequested(flags, ctx);
        core::writeMetricsIfRequested(flags, ctx);
        core::writeIsaTraceIfRequested(flags, ctx);
        return rc;
    }

    auto workload = gcn::Workload::paperDefault(
        flags.getString("dataset"));
    workload.microBatchSize =
        static_cast<uint32_t>(flags.getInt("micro-batch"));
    workload.epochs = static_cast<uint32_t>(flags.getInt("epochs"));
    workload.seed = ctx.seed;

    if (!flags.getString("graph").empty()) {
        const auto g = graph::loadEdgeList(flags.getString("graph"));
        workload.dataset.name = flags.getString("graph");
        workload.dataset.numVertices = g.numVertices();
        workload.dataset.numEdges = g.numEdges();
        workload.dataset.avgDegree = g.averageDegree();
    }

    auto system = core::makeSystem(
        core::systemFromName(flags.getString("system")));
    system.sim = ctx;
    system.fault = faultCfg;
    if (flags.getDouble("theta") > 0.0) {
        system.policy.selectiveUpdate = true;
        system.policy.theta = flags.getDouble("theta");
    }

    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);
    core::Accelerator accel(harness.hardware(), system);
    const auto run = accel.run(workload, profile);
    const auto baseline = harness.runOne(
        core::systemFromName(flags.getString("baseline")), workload);
    core::writeTraceIfRequested(flags, ctx);
    core::writeMetricsIfRequested(flags, ctx);
    core::writeIsaTraceIfRequested(flags, ctx);

    if (flags.getBool("json")) {
        core::writeRunJson(run, std::cout);
        std::cout << "\n";
        return 0;
    }

    if (flags.getBool("csv")) {
        std::cout << "dataset,system,engine,makespan_ns,energy_pj,"
                     "speedup,energy_saving,crossbars,avg_idle\n"
                  << run.datasetName << ',' << run.systemName << ','
                  << run.engineName << ',' << run.makespanNs << ','
                  << run.energyPj << ','
                  << run.speedupOver(baseline) << ','
                  << run.energySavingOver(baseline) << ','
                  << run.totalCrossbars << ','
                  << run.avgIdleFraction << "\n";
        return 0;
    }

    std::cout << run.systemName << " on " << run.datasetName << " ("
              << workload.dataset.numVertices << " vertices, "
              << workload.model.numLayers << "-layer GCN, micro-batch "
              << workload.microBatchSize << ", " << run.engineName
              << " engine)\n\n";
    std::cout << "makespan      : " << formatTimeNs(run.makespanNs)
              << "\n";
    std::cout << "energy        : " << formatEnergyPj(run.energyPj)
              << "\n";
    std::cout << "vs " << baseline.systemName << "     : "
              << formatRatio(run.speedupOver(baseline)) << " speedup, "
              << formatRatio(run.energySavingOver(baseline))
              << " energy saving\n";
    std::cout << "crossbars     : " << run.totalCrossbars << " of "
              << harness.hardware().totalCrossbars() << "\n";
    std::cout << "avg idle      : " << run.avgIdleFraction * 100.0
              << "%\n\n";

    Table stagesTable("per-stage allocation",
                      {"stage", "replicas", "crossbars", "time/mb",
                       "idle %"});
    for (size_t i = 0; i < run.stages.size(); ++i) {
        stagesTable.row()
            .cell(run.stages[i].label())
            .cell(static_cast<uint64_t>(run.replicas[i]))
            .cell(run.stageCrossbars[i])
            .cell(formatTimeNs(run.stageTimesNs[i]))
            .cell(run.idleFraction[i] * 100.0, 1);
    }
    stagesTable.print(std::cout);

    if (flags.getBool("gantt")) {
        // Render through the selected engine so the chart reflects
        // the same backend that produced the makespan.
        sim::ScheduleRequest request;
        request.stageTimesNs = run.stageTimesNs;
        request.replicas = run.replicas;
        request.regime = sim::Regime::IntraInterBatch;
        request.totalMicroBatches =
            std::min(workload.microBatchesPerEpoch() * workload.epochs,
                     16u);
        sim::SimContext ganttCtx = ctx;
        ganttCtx.recordWindows = true;
        ganttCtx.traceSink = nullptr;
        const auto timeline =
            sim::resolveEngine(ganttCtx).schedule(request, ganttCtx);
        std::cout << '\n'
                  << pipeline::renderGantt(
                         run.stages, timeline.toScheduleResult());
    }
    return 0;
}
