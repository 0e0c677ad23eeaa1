/**
 * @file
 * gopim_trace: inspect binary ISA trace files (--isa-trace-out).
 *
 * Modes (default --summary):
 *   --summary    per-stream header, opcode histogram, and the
 *                nominal closed-form timing preview
 *   --validate   decode + structural validation of every stream
 *                (the command sequence must be the canonical
 *                lowering of its header); exits non-zero on any
 *                invalid stream — the CI round-trip job gates on it
 *   --verify-semantics
 *                run the flow-level semantic verifier
 *                (isa::verifyStream: CFG prologue, NOC pairing and
 *                deadlocks, BARRIER/SYNC bracketing, duration bit
 *                patterns, refresh cadence) on every stream; exits
 *                non-zero and prints each issue on failure
 *   --dump       disassembly listing (--limit bounds the commands
 *                printed per stream)
 *
 * --selftest-write=PATH emits a small canonical bundle built through
 * isa::StreamBuilder — the generator for the golden fixture pinned
 * in tests/data/, so regenerating it after a deliberate format
 * change is a one-liner.
 */

#include <iomanip>
#include <iostream>

#include "common/flags.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "isa/isa.hh"
#include "isa/trace_io.hh"
#include "isa/verify.hh"

namespace {

using namespace gopim;

/**
 * The canonical self-test bundle: three small streams covering the
 * regimes, the retry/refresh knobs, and multi-replica stages. The
 * golden-fixture tests pin these exact bytes; change them only with
 * a format version bump.
 */
isa::TraceBundle
selftestBundle()
{
    isa::TraceBundle bundle;
    bundle.streams.push_back(
        isa::StreamBuilder("selftest serial")
            .regime(pipeline::Regime::Serial)
            .microBatches(3)
            .seed(7)
            .stage(100.0)
            .stage(250.0, 2)
            .build());
    bundle.streams.push_back(
        isa::StreamBuilder("selftest intra-batch refresh")
            .regime(pipeline::Regime::IntraBatch)
            .microBatches(8, 4)
            .seed(11)
            .refresh(2, 500.0)
            .stage(64.0)
            .stage(128.0)
            .stage(32.0, 3)
            .build());
    bundle.streams.push_back(
        isa::StreamBuilder("selftest pipelined retries")
            .regime(pipeline::Regime::IntraInterBatch)
            .microBatches(6)
            .seed(42)
            .bufferSlots(2)
            .replicasAsServers(true)
            .writeRetry(0.25, 0.3)
            .stage(1000.0, 2)
            .stage(750.0, 1)
            .build());
    return bundle;
}

void
printSummary(const isa::CommandStream &stream, size_t index)
{
    const isa::ScheduleDesc &d = stream.desc;
    std::cout << "stream " << index << ": \""
              << stream.label << "\"\n"
              << "  fingerprint : "
              << hexDigest64(stream.fingerprint()) << "\n"
              << "  stages      : " << d.stageTimesNs.size()
              << ", regime " << pipeline::toString(d.regime)
              << ", micro-batches " << d.totalMicroBatches;
    if (d.microBatchesPerBatch > 0)
        std::cout << " (" << d.microBatchesPerBatch << "/batch)";
    std::cout << ", seed " << d.seed << "\n";
    if (d.writeRetryProb > 0.0)
        std::cout << "  write retry : p=" << d.writeRetryProb
                  << ", write fraction " << d.writeFraction << "\n";
    if (d.refreshActive())
        std::cout << "  refresh     : every "
                  << d.refreshEveryMicroBatches
                  << " micro-batches, stall " << d.refreshStallNs
                  << " ns\n";
    std::cout << "  commands    : " << stream.commands.size();
    std::string histogram;
    for (const auto &[name, count] : isa::opcodeHistogram(stream)) {
        if (count == 0)
            continue;
        histogram +=
            (histogram.empty() ? " (" : ", ") + name + " " +
            std::to_string(count);
    }
    if (!histogram.empty())
        std::cout << histogram << ")";
    std::cout << "\n";
    const auto nominal = isa::nominalTiming(stream);
    std::cout << "  nominal     : makespan " << std::fixed
              << std::setprecision(1) << nominal.makespanNs
              << " ns (closed-form preview; replay via "
                 "--engine=replay is authoritative)\n"
              << std::defaultfloat;
}

void
printDump(const isa::CommandStream &stream, uint64_t limit)
{
    uint64_t printed = 0;
    for (size_t i = 0; i < stream.commands.size(); ++i) {
        if (printed++ == limit) {
            std::cout << "  ... ("
                      << stream.commands.size() - limit
                      << " more)\n";
            break;
        }
        const isa::Command &cmd = stream.commands[i];
        std::cout << "  " << std::setw(6) << i << "  "
                  << std::left << std::setw(10)
                  << isa::toString(cmd.op) << std::right
                  << " stage=" << cmd.stage
                  << " mb=" << cmd.microBatch;
        if (cmd.operand != 0)
            std::cout << " operand=" << cmd.operand;
        if (cmd.durationBits != 0)
            std::cout << " duration=" << cmd.durationNs() << "ns";
        std::cout << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags("gopim_trace",
                "dump, validate, and summarize GoPIM binary ISA "
                "traces");
    flags.addBool("summary", false,
                  "print per-stream headers and opcode histograms "
                  "(the default mode)");
    flags.addBool("validate", false,
                  "check every stream against the canonical "
                  "lowering of its header; non-zero exit on failure");
    flags.addBool("verify-semantics", false,
                  "run the flow-level semantic verifier on every "
                  "stream; non-zero exit on any issue");
    flags.addBool("dump", false, "disassemble the command streams");
    flags.addInt("limit", 64,
                 "max commands printed per stream with --dump");
    flags.setIntRange("limit", 1, 1 << 30);
    flags.addString("selftest-write", "",
                    "write the canonical self-test bundle here and "
                    "exit (golden-fixture generator)");
    if (!flags.parse(argc, argv))
        return 0;

    if (const std::string path = flags.getString("selftest-write");
        !path.empty()) {
        std::string error;
        if (!isa::writeTraceFile(path, selftestBundle(), &error))
            fatal("cannot write self-test bundle: ", error);
        inform("wrote canonical self-test bundle to ", path);
        return 0;
    }

    if (flags.positional().size() != 1)
        fatal("expected exactly one trace file argument (see "
              "--help)");
    const std::string path = flags.positional().front();

    isa::TraceBundle bundle;
    std::string error;
    if (!isa::readTraceFile(path, &bundle, &error)) {
        std::cerr << "gopim_trace: " << path << ": " << error
                  << "\n";
        return 1;
    }

    const bool validate = flags.getBool("validate");
    const bool verify = flags.getBool("verify-semantics");
    const bool dump = flags.getBool("dump");
    const bool summary = flags.getBool("summary") ||
                         (!validate && !verify && !dump);

    std::cout << path << ": format v" << isa::kTraceFormatVersion
              << ", " << bundle.streams.size() << " stream(s)\n";
    int rc = 0;
    for (size_t i = 0; i < bundle.streams.size(); ++i) {
        const isa::CommandStream &stream = bundle.streams[i];
        if (summary)
            printSummary(stream, i);
        if (dump) {
            std::cout << "stream " << i << " (\"" << stream.label
                      << "\"):\n";
            printDump(stream,
                      static_cast<uint64_t>(flags.getInt("limit")));
        }
        if (validate) {
            const std::string streamError =
                isa::validateStream(stream);
            if (streamError.empty()) {
                std::cout << "stream " << i << ": OK ("
                          << stream.commands.size()
                          << " commands match the canonical "
                             "lowering)\n";
            } else {
                std::cout << "stream " << i << ": INVALID — "
                          << streamError << "\n";
                rc = 1;
            }
        }
        if (verify) {
            const std::vector<isa::VerifyIssue> issues =
                isa::verifyStream(stream);
            if (issues.empty()) {
                std::cout << "stream " << i << ": SEMANTICS OK ("
                          << stream.commands.size()
                          << " commands)\n";
            } else {
                for (const isa::VerifyIssue &issue : issues)
                    std::cout << "stream " << i << " "
                              << issue.format() << "\n";
                rc = 1;
            }
        }
    }
    return rc;
}
