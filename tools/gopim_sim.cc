/**
 * @file
 * gopim_sim: command-line driver for the simulator. Runs any of the
 * named systems on any catalog dataset (or a user edge-list file),
 * printing the makespan, energy, allocation, idle profile, and
 * optionally a Gantt chart, CSV row, or Chrome trace — the everyday
 * entry point for downstream users.
 *
 * A single run is one serving request: the flags become a
 * serve::Request (validated like gopim_serve's), --graph swaps in an
 * edge list's statistics, and serve::runRequest runs it.
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
#include "core/harness.hh"
#include "core/options.hh"
#include "core/report.hh"
#include "core/systems.hh"
#include "graph/io.hh"
#include "pipeline/gantt.hh"
#include "serve/request.hh"
#include "sim/engine.hh"
#include "workload/cnn_infer.hh"
#include "workload/family.hh"

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
runGridMode(const Flags &flags, const serve::Request &defaults)
{
    core::ComparisonHarness harness(
        reram::AcceleratorConfig::paperDefault(), defaults.sim);
    harness.setFaultConfig(defaults.fault);
    const auto rows = harness.runGrid(
        core::figure13Systems(), splitCommas(flags.getString("dataset")),
        core::jobsFromFlags(flags));
    core::writeTraceIfRequested(flags, defaults.sim);
    core::writeMetricsIfRequested(flags, defaults.sim);
    core::writeIsaTraceIfRequested(flags, defaults.sim);
    if (flags.getBool("json")) {
        core::writeGridJson(rows, std::cout);
        return 0;
    }
    if (flags.getBool("csv")) {
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

/** One registry (engines, families, partitionings) as a table. */
template <typename Registry>
void
printRegistry(const std::string &title, const Registry &registry)
{
    Table table(title, {"canonical", "alias", "summary"});
    for (const auto &info : registry)
        table.row().cell(info.canonical).cell(info.alias).cell(
            info.summary);
    table.print(std::cout);
}

/** --list-workloads: families, partitionings, and CNN presets. */
int
listWorkloads()
{
    printRegistry("registered workload families (--workload)",
                  workload::familyRegistry());
    std::cout << '\n';
    printRegistry("gnn-infer partitionings (--partition)",
                  workload::partitionRegistry());
    std::cout << '\n';
    Table presets("cnn-infer presets (--dataset)",
                  {"name", "summary"});
    for (const auto &preset : workload::cnnPresetRegistry())
        presets.row().cell(preset.name).cell(preset.summary);
    presets.print(std::cout);
    return 0;
}

/** The single-run flags as a resolved serving request. */
serve::ResolvedRequest
resolveFlags(const Flags &flags, const serve::Request &defaults)
{
    // Up front for the name hint a request error does not carry.
    core::systemFromName(flags.getString("system"));
    core::systemFromName(flags.getString("baseline"));

    json::Value body = json::Value::object();
    // cnn-infer reads presets, not the graph catalog: an unset
    // --dataset means the family's default, as in a request.
    if (flags.isSet("dataset"))
        body.set("dataset", flags.getString("dataset"));
    body.set("workload", flags.getString("workload"));
    body.set("partition", flags.getString("partition"));
    body.set("system", flags.getString("system"));
    body.set("baseline", flags.getString("baseline"));
    body.set("micro_batch", flags.getInt("micro-batch"));
    body.set("epochs", flags.getInt("epochs"));
    body.set("theta", flags.getDouble("theta"));

    serve::Request request;
    serve::ResolvedRequest resolved;
    serve::RequestError err = serve::parseRequest(body, defaults, &request);
    if (err.ok())
        err = serve::resolveRequest(request, &resolved);
    if (!err.ok())
        fatal(err.message);

    if (const std::string path = flags.getString("graph");
        !path.empty()) {
        const auto g = graph::loadEdgeList(path);
        gcn::Workload &workload = resolved.workload;
        workload.dataset.name = path;
        workload.dataset.numVertices = g.numVertices();
        workload.dataset.numEdges = g.numEdges();
        workload.dataset.avgDegree = g.averageDegree();
    }
    return resolved;
}

/** One request: run it, write the requested files, print the report. */
int
runSingle(const Flags &flags, const serve::Request &defaults)
{
    const serve::ResolvedRequest resolved =
        resolveFlags(flags, defaults);
    const auto hw = reram::AcceleratorConfig::paperDefault();
    const serve::RequestRun out = serve::runRequest(resolved, hw);
    const core::RunResult &run = out.run;
    const core::RunResult &baseline = *out.baseline;
    core::writeTraceIfRequested(flags, defaults.sim);
    core::writeMetricsIfRequested(flags, defaults.sim);
    core::writeIsaTraceIfRequested(flags, defaults.sim);

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

    const gcn::Workload &workload = resolved.workload;
    if (resolved.request.family == workload::FamilyKind::GcnTrain)
        std::cout << run.systemName << " on " << run.datasetName << " ("
                  << workload.dataset.numVertices << " vertices, "
                  << workload.model.numLayers
                  << "-layer GCN, micro-batch "
                  << workload.microBatchSize << ", " << run.engineName
                  << " engine)\n\n";
    else
        std::cout << run.systemName << " running " << out.plan->label
                  << " (" << out.plan->stages.size()
                  << " stages, micro-batch " << workload.microBatchSize
                  << ", " << out.plan->totalMicroBatches
                  << " micro-batches, " << run.engineName
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
        // Render through the selected engine so the chart reflects
        // the same backend that produced the makespan.
        sim::ScheduleRequest request;
        request.stageTimesNs = run.stageTimesNs;
        request.replicas = run.replicas;
        request.regime = sim::Regime::IntraInterBatch;
        request.totalMicroBatches =
            std::min(out.plan->totalMicroBatches, 16u);
        sim::SimContext ganttCtx = defaults.sim;
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

    if (flags.getBool("list-engines")) {
        printRegistry("registered engines (--engine)",
                      sim::engineRegistry());
        return 0;
    }
    if (flags.getBool("list-workloads"))
        return listWorkloads();

    const serve::Request defaults = serve::requestDefaults(flags);
    if (workload::familyFromString(flags.getString("workload")) !=
        workload::FamilyKind::GcnTrain) {
        if (flags.getBool("grid"))
            fatal("--grid supports --workload=gcn-train only (use "
                  "bench/ablation_workloads for inference grids)");
        if (!flags.getString("graph").empty())
            fatal("--graph is supported with --workload=gcn-train "
                  "only");
        if (defaults.fault.enabled())
            fatal("fault injection applies to --workload=gcn-train "
                  "only");
    }
    return flags.getBool("grid") ? runGridMode(flags, defaults)
                                 : runSingle(flags, defaults);
}
