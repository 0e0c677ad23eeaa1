/**
 * @file
 * Workload-family ablation: how the replica allocators rank across
 * the workload families the substrate now serves — GCN training, GNN
 * inference under each SpMM partitioning strategy, and the im2col CNN
 * kernel. Training is dominated by replica-divisible stage time, so
 * allocation quality decides the makespan; the inference families add
 * fixed (unscalable) merge/straggler terms that compress the gap —
 * this bench quantifies both effects on one grid.
 *
 * Every cell runs three times: live on the event engine, again with
 * an isa::StreamRecorder attached (encoding the bundle to trace
 * bytes), and once more replayed from the decoded bytes through
 * sim::ReplayEngine. Replayed cells are asserted bit-identical to
 * their live cells, so the bench doubles as the end-to-end trace
 * check for all three families. --json-out (default
 * BENCH_workloads.json) records the full grid.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "alloc/annealing.hh"
#include "alloc/basic.hh"
#include "alloc/greedy_heap.hh"
#include "common/flags.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/options.hh"
#include "core/systems.hh"
#include "isa/trace_io.hh"
#include "obs/profile.hh"
#include "sim/replay.hh"
#include "workload/cnn_infer.hh"
#include "workload/runner.hh"

using namespace gopim;

namespace {

struct AllocatorEntry
{
    std::string name;
    std::shared_ptr<const alloc::Allocator> allocator;
};

bool
bitIdentical(const core::RunResult &a, const core::RunResult &b)
{
    return a.makespanNs == b.makespanNs && a.energyPj == b.energyPj &&
           a.eventsProcessed == b.eventsProcessed &&
           a.idleFraction == b.idleFraction &&
           a.blockedNs == b.blockedNs;
}

std::vector<core::RunResult>
runGrid(const std::vector<workload::WorkloadSpec> &specs,
        const std::vector<AllocatorEntry> &allocators,
        const sim::SimContext &simCtx,
        const reram::AcceleratorConfig &hw)
{
    std::vector<core::RunResult> flat;
    for (const auto &spec : specs) {
        for (const auto &entry : allocators) {
            core::SystemConfig system =
                core::makeSystem(core::SystemKind::GoPim);
            system.name = entry.name;
            system.allocator = entry.allocator;
            system.sim = simCtx;
            flat.push_back(workload::runFamily(spec, system, hw));
        }
    }
    return flat;
}

std::string
specLabel(const workload::WorkloadSpec &spec)
{
    std::string label = workload::toString(spec.family);
    if (spec.family == workload::FamilyKind::GnnInfer)
        label += "/" + workload::toString(spec.partition);
    return label + " (" + spec.dataset + ")";
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags("ablation_workloads",
                "allocator ranking across the workload families "
                "(gcn-train, gnn-infer per partitioning, cnn-infer) "
                "with a recorded-trace replay parity check");
    flags.addString("dataset", "Cora",
                    "catalog graph for the GNN/GCN cells");
    flags.addString("cnn-preset", workload::defaultCnnPreset(),
                    "CNN preset for the cnn-infer cell (" +
                        workload::cnnPresetNameList() + ")");
    flags.addInt("anneal-iters", 5000,
                 "annealing iterations (quality/runtime knob)");
    flags.addInt("tiles", 192,
                 "chip tiles; the default is deliberately far below "
                 "the paper's 65536 so replicas are contended and "
                 "the allocators actually rank (0 = paper default)");
    core::addSimFlags(flags);
    core::addJsonOutFlag(flags, "BENCH_workloads.json");
    if (!flags.parse(argc, argv))
        return 0;

    const std::string dataset = flags.getString("dataset");
    const std::string preset = flags.getString("cnn-preset");
    if (!workload::findCnnPreset(preset))
        fatal("unknown --cnn-preset '", preset, "' (try ",
              workload::cnnPresetNameList(), ")");

    // One spec per family cell; gnn-infer fans out over the three
    // partitioning strategies.
    std::vector<workload::WorkloadSpec> specs;
    {
        workload::WorkloadSpec spec;
        spec.dataset = dataset;
        spec.family = workload::FamilyKind::GcnTrain;
        specs.push_back(spec);
        spec.family = workload::FamilyKind::GnnInfer;
        for (const auto &info : workload::partitionRegistry()) {
            spec.partition = info.kind;
            specs.push_back(spec);
        }
        spec.family = workload::FamilyKind::CnnInfer;
        spec.dataset = preset;
        spec.partition = workload::Partitioning::RowSplit;
        specs.push_back(spec);
    }

    std::vector<AllocatorEntry> allocators;
    allocators.push_back(
        {"GreedyHeap", std::make_shared<alloc::GreedyHeapAllocator>()});
    allocators.push_back(
        {"Annealing",
         std::make_shared<alloc::AnnealingAllocator>(
             alloc::AnnealingParams{
                 .iterations = static_cast<uint32_t>(
                     flags.getInt("anneal-iters"))})});
    allocators.push_back(
        {"FixedRatio",
         std::make_shared<alloc::FixedRatioAllocator>(1.0, 2.0)});
    allocators.push_back(
        {"SpaceProp",
         std::make_shared<alloc::SpaceProportionalAllocator>()});

    // The event engine is the replay subject, whatever --engine says.
    sim::SimContext base = core::simContextFromFlags(flags);
    base.engine = sim::EngineKind::EventDriven;
    base.engineOverride = nullptr;
    auto hw = reram::AcceleratorConfig::paperDefault();
    if (const int64_t tiles = flags.getInt("tiles"); tiles > 0)
        hw.chip.tilesPerChip = static_cast<uint32_t>(tiles);
    hw.validate();

    // Pass 1: live event-driven runs.
    const double eventStart = obs::profileNowUs();
    const auto eventRuns = runGrid(specs, allocators, base, hw);
    const double eventUs = obs::profileNowUs() - eventStart;

    // Pass 2: record every stream and encode the bundle to bytes.
    sim::SimContext recording = base;
    recording.isaRecorder = std::make_shared<isa::StreamRecorder>();
    runGrid(specs, allocators, recording, hw);
    const isa::TraceBundle bundle = recording.isaRecorder->bundle();
    const std::string traceBytes = isa::encodeBundle(bundle);

    // Pass 3: replay the whole grid from the decoded bytes.
    isa::TraceBundle decoded;
    std::string error;
    if (!isa::decodeBundle(traceBytes, &decoded, &error))
        fatal("trace round trip failed: ", error);
    sim::SimContext replaying = base;
    replaying.engine = sim::EngineKind::Replay;
    replaying.engineOverride =
        std::make_shared<sim::ReplayEngine>(std::move(decoded));
    const auto replayRuns = runGrid(specs, allocators, replaying, hw);

    if (replayRuns.size() != eventRuns.size())
        fatal("replay grid size mismatch");
    for (size_t i = 0; i < eventRuns.size(); ++i)
        if (!bitIdentical(eventRuns[i], replayRuns[i]))
            fatal("replay diverged from the event engine on ",
                  eventRuns[i].systemName, " / ",
                  eventRuns[i].datasetName);

    std::vector<std::string> headers = {"workload"};
    for (const auto &entry : allocators)
        headers.push_back(entry.name);
    Table table("Workload families: makespan per allocator, "
                "normalized to " +
                    allocators.front().name +
                    " (above 1.00 = slower)",
                headers);
    json::Value grid = json::Value::array();
    for (size_t s = 0; s < specs.size(); ++s) {
        auto &row = table.row().cell(specLabel(specs[s]));
        const double reference =
            eventRuns[s * allocators.size()].makespanNs;
        for (size_t a = 0; a < allocators.size(); ++a) {
            const auto &run = eventRuns[s * allocators.size() + a];
            row.cell(reference > 0.0 ? run.makespanNs / reference
                                     : 0.0,
                     3);
            json::Value cell = json::Value::object();
            cell.set("workload", workload::toString(specs[s].family));
            if (specs[s].family == workload::FamilyKind::GnnInfer)
                cell.set("partition",
                         workload::toString(specs[s].partition));
            cell.set("dataset", specs[s].dataset);
            cell.set("allocator", allocators[a].name);
            cell.set("makespan_ns", run.makespanNs);
            cell.set("energy_pj", run.energyPj);
            cell.set("vs_reference",
                     reference > 0.0 ? run.makespanNs / reference
                                     : 0.0);
            grid.push(std::move(cell));
        }
    }
    table.print(std::cout);
    std::cout << "\nTraining rewards allocation quality; the "
                 "inference families' fixed merge/straggler terms "
                 "compress the allocator gap. Replay re-timed every "
                 "cell from "
              << traceBytes.size() << " trace bytes ("
              << bundle.streams.size()
              << " unique streams) with zero divergence.\n";

    if (const std::string path = flags.getString("json-out");
        !path.empty()) {
        json::Value doc = json::Value::object();
        doc.set("bench", "ablation_workloads");
        doc.set("dataset", dataset);
        doc.set("cnn_preset", preset);
        doc.set("runs", static_cast<double>(eventRuns.size()));
        doc.set("event_ms", eventUs / 1000.0);
        doc.set("bit_identical", true);
        doc.set("trace_bytes",
                static_cast<double>(traceBytes.size()));
        doc.set("trace_streams",
                static_cast<double>(bundle.streams.size()));
        doc.set("grid", std::move(grid));
        std::ofstream out(path);
        if (!out)
            fatal("cannot open --json-out file ", path);
        out << doc.dumpIndented() << '\n';
    }
    core::writeMetricsIfRequested(flags, base);
    return 0;
}
