#include "core/report.hh"

#include "common/logging.hh"
#include "sim/engine.hh"

namespace gopim::core {

namespace {

template <typename T>
json::Value
toJsonArray(const std::vector<T> &values)
{
    json::Value arr = json::Value::array();
    for (const T &v : values)
        arr.push(json::Value(v));
    return arr;
}

} // namespace

json::Value
runResultToJson(const RunResult &run)
{
    json::Value v = json::Value::object();
    v.set("system", run.systemName);
    v.set("dataset", run.datasetName);
    v.set("engine", run.engineName);
    v.set("makespan_ns", run.makespanNs);
    v.set("energy_pj", run.energyPj);
    v.set("total_crossbars", run.totalCrossbars);
    v.set("avg_idle_fraction", run.avgIdleFraction);
    v.set("total_activations", run.totalActivations);
    v.set("total_row_writes", run.totalRowWrites);

    json::Value stages = json::Value::array();
    for (const auto &stage : run.stages)
        stages.push(stage.label());
    v.set("stages", std::move(stages));

    v.set("replicas", toJsonArray(run.replicas));
    v.set("stage_crossbars", toJsonArray(run.stageCrossbars));
    v.set("stage_times_ns", toJsonArray(run.stageTimesNs));
    v.set("idle_fraction", toJsonArray(run.idleFraction));

    // Emitted unconditionally (defaults when faults are disabled) so
    // result bytes stay stable across configurations.
    json::Value faults = json::Value::object();
    faults.set("repair_policy", run.repairPolicy);
    faults.set("raw_fault_rate", run.rawFaultRate);
    faults.set("residual_fault_rate", run.residualFaultRate);
    faults.set("wear_lifetime_fraction", run.wearLifetimeFraction);
    faults.set("worn_row_fraction", run.wornRowFraction);
    faults.set("write_amplification", run.writeAmplification);
    faults.set("repair_stall_ns", run.repairStallNs);
    faults.set("write_exposure", run.writeExposure);
    v.set("fault", std::move(faults));
    return v;
}

json::Value
gridToJson(const std::vector<ComparisonRow> &rows)
{
    json::Value arr = json::Value::array();
    for (const auto &row : rows)
        for (const auto &run : row.results)
            arr.push(runResultToJson(run));
    return arr;
}

json::Value
hardwareJson(const reram::AcceleratorConfig &hw)
{
    json::Value hardware = json::Value::object();
    hardware.set("crossbar_rows", hw.crossbar.rows);
    hardware.set("crossbar_cols", hw.crossbar.cols);
    hardware.set("bits_per_cell", hw.crossbar.bitsPerCell);
    hardware.set("value_bits", hw.crossbar.valueBits);
    hardware.set("read_latency_ns", hw.crossbar.readLatencyNs);
    hardware.set("write_latency_ns", hw.crossbar.writeLatencyNs);
    hardware.set("crossbars_per_pe", hw.pe.crossbarsPerPe);
    hardware.set("pes_per_tile", hw.tile.pesPerTile);
    hardware.set("tiles_per_chip", hw.chip.tilesPerChip);
    return hardware;
}

json::Value
planConfigPrefix(const SystemConfig &system,
                 const reram::AcceleratorConfig &hw,
                 const gcn::Workload &workload)
{
    json::Value dataset = json::Value::object();
    dataset.set("name", workload.dataset.name);
    dataset.set("task", workload.dataset.task ==
                                graph::TaskType::LinkPrediction
                            ? "link"
                            : "node");
    dataset.set("vertices", workload.dataset.numVertices);
    dataset.set("edges", workload.dataset.numEdges);
    dataset.set("avg_degree", workload.dataset.avgDegree);
    dataset.set("feature_dim", workload.dataset.featureDim);

    json::Value model = json::Value::object();
    model.set("layers", workload.model.numLayers);
    model.set("input_channels", workload.model.inputChannels);
    model.set("hidden_channels", workload.model.hiddenChannels);
    model.set("output_channels", workload.model.outputChannels);

    json::Value policy = json::Value::object();
    policy.set("map_strategy",
               static_cast<int64_t>(system.policy.mapStrategy));
    policy.set("selective_update", system.policy.selectiveUpdate);
    policy.set("theta", system.policy.theta);
    policy.set("cold_period", system.policy.coldPeriod);
    policy.set("intra_batch", system.policy.intraBatchPipeline);
    policy.set("inter_batch", system.policy.interBatchPipeline);
    policy.set("hybrid_reload", system.policy.hybridReload);
    policy.set("edge_keep_fraction", system.policy.edgeKeepFraction);

    json::Value faultCfg = json::Value::object();
    faultCfg.set("stuck_on_rate", system.fault.params.stuckOnRate);
    faultCfg.set("stuck_off_rate", system.fault.params.stuckOffRate);
    faultCfg.set("drift_rate", system.fault.params.driftPerEpoch);
    faultCfg.set("fault_seed", system.fault.params.seed);
    faultCfg.set("repair", fault::toString(system.fault.repair));
    faultCfg.set("spare_rows", system.fault.spareRowFraction);
    faultCfg.set("refresh_period_mb", system.fault.refreshPeriodMb);

    json::Value config = json::Value::object();
    config.set("dataset", std::move(dataset));
    config.set("model", std::move(model));
    config.set("micro_batch", workload.microBatchSize);
    config.set("epochs", workload.epochs);
    config.set("workload_seed", workload.seed);
    config.set("system", system.name);
    config.set("pipeline_mode",
               static_cast<int64_t>(system.pipelineMode));
    config.set("allocator",
               system.allocator ? system.allocator->name() : "none");
    config.set("micro_batches_per_batch", system.microBatchesPerBatch);
    config.set("policy", std::move(policy));
    config.set("fault", std::move(faultCfg));
    config.set("hardware", hardwareJson(hw));
    return config;
}

json::Value
canonicalRunConfig(const SystemConfig &system,
                   const reram::AcceleratorConfig &hw,
                   const gcn::Workload &workload)
{
    json::Value config = planConfigPrefix(system, hw, workload);

    json::Value simCtx = json::Value::object();
    // The backend that will actually time the run: a plugged-in
    // override wins over the registry kind (sim::resolveEngine), so
    // the cache key must follow the same rule or two different
    // backends could share a cached result.
    simCtx.set("engine", system.sim.engineOverride
                             ? system.sim.engineOverride->name()
                             : sim::toString(system.sim.engine));
    simCtx.set("seed", system.sim.seed);
    simCtx.set("buffer_slots", system.sim.event.inputBufferSlots);
    simCtx.set("replicas_as_servers",
               system.sim.event.replicasAsServers);
    simCtx.set("retry_prob", system.sim.event.writeRetryProb);
    simCtx.set("write_fraction", system.sim.event.writeFraction);
    simCtx.set("refresh_every_mb",
               system.sim.event.refreshEveryMicroBatches);
    simCtx.set("refresh_stall_ns", system.sim.event.refreshStallNs);
    config.set("sim", std::move(simCtx));
    return config;
}

void
writeRunJson(const RunResult &run, std::ostream &os, int indent)
{
    os << runResultToJson(run).dumpIndented(indent);
}

void
writeGridJson(const std::vector<ComparisonRow> &rows, std::ostream &os)
{
    os << "[\n";
    bool first = true;
    for (const auto &row : rows) {
        for (const auto &run : row.results) {
            if (!first)
                os << ",\n";
            first = false;
            writeRunJson(run, os, 2);
        }
    }
    os << "\n]\n";
}

void
writeGridCsv(const std::vector<ComparisonRow> &rows, std::ostream &os)
{
    os << "dataset,system,makespan_ns,energy_pj,speedup_vs_first,"
          "energy_saving_vs_first,total_crossbars,avg_idle\n";
    for (const auto &row : rows) {
        GOPIM_ASSERT(!row.results.empty(), "empty comparison row");
        const RunResult &ref = row.results.front();
        for (const auto &run : row.results) {
            os << row.datasetName << ',' << run.systemName << ','
               << run.makespanNs << ',' << run.energyPj << ','
               << run.speedupOver(ref) << ','
               << run.energySavingOver(ref) << ','
               << run.totalCrossbars << ',' << run.avgIdleFraction
               << '\n';
        }
    }
}

} // namespace gopim::core
