#include "core/options.hh"

#include <fstream>
#include <limits>
#include <memory>

#include "common/logging.hh"
#include "core/report.hh"
#include "isa/trace_io.hh"
#include "obs/metrics.hh"
#include "sim/replay.hh"
#include "sim/trace.hh"

namespace gopim::core {

void
addSimFlags(Flags &flags)
{
    // Derived from the engine registry so a newly registered engine
    // shows up in every binary's --help without touching this file.
    flags.addString("engine", "closed", sim::engineFlagHelp());
    flags.addInt("seed", 1, "simulation + profile generation seed");
    flags.addInt("jobs", 1,
                 "worker threads for grid runs (0 = all cores)");
    flags.setIntRange("jobs", 0, std::numeric_limits<int64_t>::max());
    flags.addString("trace-out", "",
                    "write a Chrome trace_event JSON timeline here");
    flags.addString("metrics-out", "",
                    "write collected metrics as JSON here");
    flags.addString("isa-trace-out", "",
                    "record the lowered ISA command streams as a "
                    "binary trace here");
    flags.addString("isa-trace-in", "",
                    "replay a recorded ISA trace instead of "
                    "scheduling live (implies --engine=replay)");
    flags.addInt("buffer-slots", -1,
                 "event engine: inter-stage input-buffer slots "
                 "(-1 = unbounded)");
    flags.setIntRange("buffer-slots", -1,
                      std::numeric_limits<uint32_t>::max());
    flags.addDouble("retry-prob", 0.0,
                    "event engine: ReRAM write-verify retry "
                    "probability");
    flags.setDoubleRange("retry-prob", 0.0, 1.0,
                         /*maxExclusive=*/true);
    flags.addDouble("write-fraction", 0.3,
                    "event engine: fraction of stage time spent "
                    "writing (with --retry-prob)");
    flags.setDoubleRange("write-fraction", 0.0, 1.0);
    flags.addDouble("stuck-on-rate", 0.0,
                    "fault: stuck-at-ON cell rate");
    flags.setDoubleRange("stuck-on-rate", 0.0, 1.0,
                         /*maxExclusive=*/true);
    flags.addDouble("stuck-off-rate", 0.0,
                    "fault: stuck-at-OFF cell rate");
    flags.setDoubleRange("stuck-off-rate", 0.0, 1.0,
                         /*maxExclusive=*/true);
    flags.addDouble("drift-rate", 0.0,
                    "fault: relative conductance drift per epoch");
    flags.setDoubleRange("drift-rate", 0.0, 1.0,
                         /*maxExclusive=*/true);
    flags.addString("repair", "none",
                    "fault repair policy: " + fault::repairNameList());
    flags.addDouble("spare-rows", 0.05,
                    "fault: fraction of rows provisioned as spares "
                    "(with --repair=spare)");
    flags.setDoubleRange("spare-rows", 0.0, 1.0,
                         /*maxExclusive=*/true);
    flags.addInt("refresh-period", 512,
                 "fault: micro-batches between re-program refreshes "
                 "(with --repair=refresh)");
    flags.setIntRange("refresh-period", 1,
                      std::numeric_limits<uint32_t>::max());
}

std::string
eventKnobRangeError(double retryProb, double writeFraction)
{
    if (retryProb < 0.0 || retryProb >= 1.0)
        return "retry probability must be in [0, 1), got " +
               std::to_string(retryProb);
    if (writeFraction < 0.0 || writeFraction > 1.0)
        return "write fraction must be in [0, 1], got " +
               std::to_string(writeFraction);
    return "";
}

sim::SimContext
simContextFromFlags(const Flags &flags)
{
    sim::SimContext ctx;
    ctx.engine = sim::engineKindFromString(flags.getString("engine"));
    ctx.seed = static_cast<uint64_t>(flags.getInt("seed"));

    const int64_t slots = flags.getInt("buffer-slots");
    ctx.event.inputBufferSlots =
        slots < 0 ? std::numeric_limits<uint32_t>::max()
                  : static_cast<uint32_t>(slots);
    ctx.event.writeRetryProb = flags.getDouble("retry-prob");
    ctx.event.writeFraction = flags.getDouble("write-fraction");
    // parse() already range-checked flag input; this guards callers
    // that build Flags values programmatically.
    const std::string rangeError = eventKnobRangeError(
        ctx.event.writeRetryProb, ctx.event.writeFraction);
    if (!rangeError.empty())
        fatal(rangeError);

    if (!flags.getString("trace-out").empty())
        ctx.traceSink = std::make_shared<sim::ChromeTraceSink>();
    if (!flags.getString("metrics-out").empty())
        ctx.metrics = std::make_shared<obs::MetricsRegistry>();
    if (!flags.getString("isa-trace-out").empty())
        ctx.isaRecorder = std::make_shared<isa::StreamRecorder>();

    const std::string traceIn = flags.getString("isa-trace-in");
    if (!traceIn.empty()) {
        if (flags.isSet("engine") &&
            ctx.engine != sim::EngineKind::Replay)
            fatal("--isa-trace-in implies --engine=replay; drop the "
                  "conflicting --engine=",
                  flags.getString("engine"));
        isa::TraceBundle bundle;
        std::string error;
        if (!isa::readTraceFile(traceIn, &bundle, &error))
            fatal("cannot load --isa-trace-in ", traceIn, ": ",
                  error);
        ctx.engine = sim::EngineKind::Replay;
        ctx.engineOverride =
            std::make_shared<sim::ReplayEngine>(std::move(bundle));
    }
    return ctx;
}

fault::FaultConfig
faultConfigFromFlags(const Flags &flags)
{
    fault::FaultConfig config;
    config.params.stuckOnRate = flags.getDouble("stuck-on-rate");
    config.params.stuckOffRate = flags.getDouble("stuck-off-rate");
    config.params.driftPerEpoch = flags.getDouble("drift-rate");
    config.repair =
        fault::repairKindFromString(flags.getString("repair"));
    config.spareRowFraction = flags.getDouble("spare-rows");
    config.refreshPeriodMb =
        static_cast<uint32_t>(flags.getInt("refresh-period"));
    return config;
}

size_t
jobsFromFlags(const Flags &flags)
{
    return static_cast<size_t>(flags.getInt("jobs"));
}

void
writeTraceIfRequested(const Flags &flags, const sim::SimContext &ctx)
{
    const std::string path = flags.getString("trace-out");
    if (path.empty())
        return;
    const auto *sink =
        dynamic_cast<const sim::ChromeTraceSink *>(ctx.traceSink.get());
    GOPIM_ASSERT(sink, "trace-out set but no Chrome trace sink");
    sink->writeFile(path);
}

void
writeMetricsIfRequested(const Flags &flags,
                        const sim::SimContext &ctx)
{
    const std::string path = flags.getString("metrics-out");
    if (path.empty())
        return;
    GOPIM_ASSERT(ctx.metrics,
                 "metrics-out set but no registry attached");
    ctx.metrics->writeFile(path);
}

void
writeIsaTraceIfRequested(const Flags &flags,
                         const sim::SimContext &ctx)
{
    const std::string path = flags.getString("isa-trace-out");
    if (path.empty())
        return;
    GOPIM_ASSERT(ctx.isaRecorder,
                 "isa-trace-out set but no stream recorder attached");
    std::string error;
    if (!isa::writeTraceFile(path, ctx.isaRecorder->bundle(), &error))
        fatal("cannot write --isa-trace-out: ", error);
}

void
addJsonOutFlag(Flags &flags, const std::string &defaultPath)
{
    flags.addString("json-out", defaultPath,
                    "write the result grid as JSON to this file "
                    "(empty = disabled)");
}

void
writeGridJsonIfRequested(const Flags &flags,
                         const std::vector<ComparisonRow> &rows)
{
    const std::string path = flags.getString("json-out");
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out)
        fatal("cannot open --json-out file ", path);
    out << gridToJson(rows).dumpIndented() << '\n';
}

} // namespace gopim::core
