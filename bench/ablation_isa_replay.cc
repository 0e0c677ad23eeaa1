/**
 * @file
 * ISA replay baseline: what lowering + binary tracing + replay cost
 * relative to live event-driven scheduling, on the Fig. 13 systems.
 *
 * Three timed passes over the same (system x dataset) grid:
 *   event      the live event-driven engine, no recording
 *   record     event-driven with an isa::StreamRecorder attached and
 *              the bundle encoded to trace bytes (the
 *              --isa-trace-out path)
 *   replay     every run re-timed from the decoded bundle through
 *              sim::ReplayEngine (the --isa-trace-in path)
 *
 * Every replayed cell is asserted bit-identical to its event cell —
 * this bench doubles as an end-to-end check of the trace round trip
 * at paper scale. --json-out (default BENCH_isa_replay.json) records
 * wall-clock per pass, trace size, and per-stream command counts.
 */

#include <fstream>
#include <iostream>
#include <vector>

#include "common/flags.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/harness.hh"
#include "core/options.hh"
#include "core/systems.hh"
#include "gcn/workload.hh"
#include "isa/trace_io.hh"
#include "obs/profile.hh"
#include "sim/replay.hh"

using namespace gopim;

namespace {

std::vector<core::RunResult>
runGridFlat(const core::ComparisonHarness &harness,
            const std::vector<core::SystemKind> &systems,
            const std::vector<std::string> &datasets)
{
    std::vector<core::RunResult> flat;
    for (const auto &row : harness.runGrid(systems, datasets))
        for (const auto &result : row.results)
            flat.push_back(result);
    return flat;
}

bool
bitIdentical(const core::RunResult &a, const core::RunResult &b)
{
    return a.makespanNs == b.makespanNs && a.energyPj == b.energyPj &&
           a.eventsProcessed == b.eventsProcessed &&
           a.idleFraction == b.idleFraction &&
           a.blockedNs == b.blockedNs;
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags("ablation_isa_replay",
                "lowering/trace/replay cost baseline vs the live "
                "event-driven engine on the Fig. 13 grid");
    flags.addString("datasets", "Cora,ddi",
                    "comma-separated catalog datasets");
    core::addSimFlags(flags);
    core::addJsonOutFlag(flags, "BENCH_isa_replay.json");
    if (!flags.parse(argc, argv))
        return 0;

    std::vector<std::string> datasets;
    {
        std::string rest = flags.getString("datasets");
        while (!rest.empty()) {
            const size_t comma = rest.find(',');
            datasets.push_back(rest.substr(0, comma));
            rest = comma == std::string::npos
                       ? ""
                       : rest.substr(comma + 1);
        }
    }
    const auto systems = core::figure13Systems();

    // The event engine is the subject here, whatever --engine says;
    // replay parity against the closed form would be vacuous.
    sim::SimContext base = core::simContextFromFlags(flags);
    base.engine = sim::EngineKind::EventDriven;
    base.engineOverride = nullptr;
    const auto hw = reram::AcceleratorConfig::paperDefault();

    // Pass 1: live event-driven runs, nothing recorded.
    const double eventStart = obs::profileNowUs();
    const auto eventRuns = runGridFlat(
        core::ComparisonHarness(hw, base), systems, datasets);
    const double eventUs = obs::profileNowUs() - eventStart;

    // Pass 2: same runs with the recorder attached, then encode the
    // deduplicated bundle — the full --isa-trace-out code path.
    sim::SimContext recording = base;
    recording.isaRecorder = std::make_shared<isa::StreamRecorder>();
    const double recordStart = obs::profileNowUs();
    runGridFlat(core::ComparisonHarness(hw, recording), systems,
                datasets);
    const isa::TraceBundle bundle = recording.isaRecorder->bundle();
    const std::string traceBytes = isa::encodeBundle(bundle);
    const double recordUs = obs::profileNowUs() - recordStart;

    // Pass 3: decode the bytes and re-time every run from the trace.
    const double replayStart = obs::profileNowUs();
    isa::TraceBundle decoded;
    std::string error;
    if (!isa::decodeBundle(traceBytes, &decoded, &error))
        fatal("trace round trip failed: ", error);
    sim::SimContext replaying = base;
    replaying.engine = sim::EngineKind::Replay;
    replaying.engineOverride =
        std::make_shared<sim::ReplayEngine>(std::move(decoded));
    const auto replayRuns = runGridFlat(
        core::ComparisonHarness(hw, replaying), systems, datasets);
    const double replayUs = obs::profileNowUs() - replayStart;

    if (replayRuns.size() != eventRuns.size())
        fatal("replay grid size mismatch");
    for (size_t i = 0; i < eventRuns.size(); ++i)
        if (!bitIdentical(eventRuns[i], replayRuns[i]))
            fatal("replay diverged from the event engine on ",
                  eventRuns[i].systemName, " / ",
                  eventRuns[i].datasetName);

    uint64_t totalCommands = 0;
    for (const auto &stream : bundle.streams)
        totalCommands += stream.commands.size();

    Table table("ISA lower/trace/replay cost (" +
                    std::to_string(eventRuns.size()) + " runs)",
                {"pass", "wall-clock ms", "vs event"});
    const auto addPass = [&table, eventUs](const std::string &name,
                                           double us) {
        table.row()
            .cell(name)
            .cell(us / 1000.0, 2)
            .cell(eventUs > 0.0 ? us / eventUs : 0.0, 3);
    };
    addPass("event (live)", eventUs);
    addPass("event + record + encode", recordUs);
    addPass("decode + replay", replayUs);
    table.print(std::cout);
    std::cout << "\ntrace: " << bundle.streams.size()
              << " unique stream(s), " << totalCommands
              << " commands, " << traceBytes.size()
              << " bytes on the wire\n"
              << "Recording rides along on the event pass for the "
                 "cost of lowering; replay re-times the whole grid "
                 "from "
              << traceBytes.size()
              << " bytes with zero divergence.\n";

    if (const std::string path = flags.getString("json-out");
        !path.empty()) {
        json::Value doc = json::Value::object();
        doc.set("bench", "ablation_isa_replay");
        doc.set("runs", static_cast<double>(eventRuns.size()));
        doc.set("event_ms", eventUs / 1000.0);
        doc.set("record_ms", recordUs / 1000.0);
        doc.set("replay_ms", replayUs / 1000.0);
        doc.set("record_overhead_vs_event",
                eventUs > 0.0 ? recordUs / eventUs : 0.0);
        doc.set("replay_vs_event",
                eventUs > 0.0 ? replayUs / eventUs : 0.0);
        doc.set("trace_bytes", static_cast<double>(traceBytes.size()));
        doc.set("bit_identical", true);
        json::Value streams = json::Value::array();
        for (const auto &stream : bundle.streams) {
            json::Value s = json::Value::object();
            s.set("label", stream.label);
            s.set("commands",
                  static_cast<double>(stream.commands.size()));
            s.set("stages", static_cast<double>(
                                stream.desc.stageTimesNs.size()));
            streams.push(std::move(s));
        }
        doc.set("streams", std::move(streams));
        std::ofstream out(path);
        if (!out)
            fatal("cannot open --json-out file ", path);
        out << doc.dumpIndented() << '\n';
    }
    core::writeMetricsIfRequested(flags, base);
    return 0;
}
