#include "isa/isa.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/hash.hh"
#include "common/logging.hh"
#include "isa/lower.hh"
#include "pipeline/schedule.hh"

namespace gopim::isa {

const char *
toString(Opcode op)
{
    switch (op) {
      case Opcode::CfgStage:
        return "CFG_STAGE";
      case Opcode::Mvm:
        return "MVM";
      case Opcode::RowWrite:
        return "ROW_WRITE";
      case Opcode::NocSend:
        return "NOC_SEND";
      case Opcode::NocRecv:
        return "NOC_RECV";
      case Opcode::Refresh:
        return "REFRESH";
      case Opcode::Barrier:
        return "BARRIER";
      case Opcode::Sync:
        return "SYNC";
    }
    panic("unknown opcode");
}

bool
opcodeKnown(uint8_t raw)
{
    return raw >= static_cast<uint8_t>(Opcode::CfgStage) &&
           raw <= static_cast<uint8_t>(Opcode::Sync);
}

double
Command::durationNs() const
{
    return std::bit_cast<double>(durationBits);
}

uint64_t
Command::bitsOf(double ns)
{
    return std::bit_cast<uint64_t>(ns);
}

void
ScheduleDesc::normalize()
{
    if (replicas.empty())
        replicas.assign(stageTimesNs.size(), 1u);
}

namespace {

/** Canonical byte serialization helpers for fingerprinting. */
void
appendU64(std::string &bytes, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
appendDoubleBits(std::string &bytes, double v)
{
    appendU64(bytes, std::bit_cast<uint64_t>(v));
}

} // namespace

std::string
ScheduleDesc::canonicalBytes() const
{
    std::string bytes;
    bytes.reserve(64 + 16 * stageTimesNs.size());
    appendU64(bytes, stageTimesNs.size());
    for (double t : stageTimesNs)
        appendDoubleBits(bytes, t);
    // Empty replicas mean "one per stage" everywhere downstream, so
    // both spellings must hash identically.
    if (replicas.empty()) {
        for (size_t i = 0; i < stageTimesNs.size(); ++i)
            appendU64(bytes, 1u);
    } else {
        for (uint32_t r : replicas)
            appendU64(bytes, r);
    }
    appendU64(bytes, static_cast<uint64_t>(regime));
    appendU64(bytes, totalMicroBatches);
    appendU64(bytes, microBatchesPerBatch);
    appendU64(bytes, seed);
    appendU64(bytes, bufferSlots);
    appendU64(bytes, replicasAsServers ? 1u : 0u);
    appendDoubleBits(bytes, writeRetryProb);
    appendDoubleBits(bytes, writeFraction);
    appendU64(bytes, refreshEveryMicroBatches);
    appendDoubleBits(bytes, refreshStallNs);
    return bytes;
}

uint64_t
ScheduleDesc::fingerprint() const
{
    return fnv1a64(canonicalBytes());
}

std::string
ScheduleDesc::validate() const
{
    if (stageTimesNs.empty())
        return "desc has no stages";
    for (size_t i = 0; i < stageTimesNs.size(); ++i) {
        if (!std::isfinite(stageTimesNs[i]) || stageTimesNs[i] < 0.0)
            return "stage " + std::to_string(i) +
                   " has a non-finite or negative service time";
    }
    if (!replicas.empty() && replicas.size() != stageTimesNs.size())
        return "replica vector size mismatch (" +
               std::to_string(replicas.size()) + " vs " +
               std::to_string(stageTimesNs.size()) + " stages)";
    for (size_t i = 0; i < replicas.size(); ++i)
        if (replicas[i] == 0)
            return "stage " + std::to_string(i) + " has zero replicas";
    if (totalMicroBatches < 1)
        return "need at least one micro-batch";
    if (!std::isfinite(writeRetryProb) || writeRetryProb < 0.0 ||
        writeRetryProb >= 1.0)
        return "writeRetryProb must lie in [0, 1)";
    if (!std::isfinite(writeFraction) || writeFraction < 0.0 ||
        writeFraction > 1.0)
        return "writeFraction must lie in [0, 1]";
    if (!std::isfinite(refreshStallNs) || refreshStallNs < 0.0)
        return "refreshStallNs must be finite and non-negative";
    return "";
}

std::string
validateStream(const CommandStream &stream)
{
    if (std::string err = stream.desc.validate(); !err.empty())
        return "invalid desc: " + err;
    const CommandStream expected =
        lowerSchedule(stream.desc, stream.label);
    if (stream.commands.size() != expected.commands.size())
        return "command count mismatch: stream has " +
               std::to_string(stream.commands.size()) +
               ", lowering of its desc produces " +
               std::to_string(expected.commands.size());
    for (size_t i = 0; i < stream.commands.size(); ++i) {
        const Command &got = stream.commands[i];
        const Command &want = expected.commands[i];
        if (got == want)
            continue;
        std::ostringstream oss;
        oss << "command " << i << " diverges from the canonical "
            << "lowering: stream has " << toString(got.op)
            << " stage=" << got.stage << " mb=" << got.microBatch
            << " operand=" << got.operand << " durationBits=0x"
            << std::hex << got.durationBits << std::dec
            << ", expected " << toString(want.op)
            << " stage=" << want.stage << " mb=" << want.microBatch
            << " operand=" << want.operand << " durationBits=0x"
            << std::hex << want.durationBits;
        return oss.str();
    }
    return "";
}

std::vector<std::vector<double>>
nominalServiceNs(const CommandStream &stream)
{
    const ScheduleDesc &desc = stream.desc;
    const size_t numStages = desc.stageTimesNs.size();
    const auto [chunkSize, numChunks] = desc.chunkStructure();
    const size_t executed =
        static_cast<size_t>(chunkSize) * numChunks;
    std::vector<std::vector<double>> nominal(
        numStages, std::vector<double>(executed, 0.0));
    for (const Command &cmd : stream.commands) {
        switch (cmd.op) {
          case Opcode::Mvm:
          case Opcode::RowWrite:
          case Opcode::Refresh:
            GOPIM_ASSERT(cmd.stage < numStages &&
                             cmd.microBatch < executed,
                         "timed command out of range");
            nominal[cmd.stage][cmd.microBatch] += cmd.durationNs();
            break;
          default:
            break;
        }
    }
    return nominal;
}

NominalTiming
nominalTiming(const CommandStream &stream)
{
    const auto nominal = nominalServiceNs(stream);
    const size_t numStages = nominal.size();
    const auto [chunkSize, numChunks] = stream.desc.chunkStructure();

    NominalTiming timing;
    timing.busyNs.assign(numStages, 0.0);
    for (uint32_t chunk = 0; chunk < numChunks; ++chunk) {
        std::vector<std::vector<double>> times(
            numStages, std::vector<double>(chunkSize));
        for (size_t i = 0; i < numStages; ++i)
            for (uint32_t j = 0; j < chunkSize; ++j)
                times[i][j] =
                    nominal[i][chunk * chunkSize + j];
        const auto chunkResult =
            pipeline::schedulePipelinedVariable(times);
        timing.makespanNs += chunkResult.makespanNs;
        for (size_t i = 0; i < numStages; ++i)
            timing.busyNs[i] += chunkResult.busyNs[i];
    }
    return timing;
}

std::vector<std::pair<std::string, uint64_t>>
opcodeHistogram(const CommandStream &stream)
{
    constexpr Opcode kAll[] = {
        Opcode::CfgStage, Opcode::Mvm,     Opcode::RowWrite,
        Opcode::NocSend,  Opcode::NocRecv, Opcode::Refresh,
        Opcode::Barrier,  Opcode::Sync,
    };
    std::vector<uint64_t> counts(sizeof(kAll) / sizeof(kAll[0]), 0);
    for (const Command &cmd : stream.commands) {
        const size_t idx =
            static_cast<size_t>(cmd.op) -
            static_cast<size_t>(Opcode::CfgStage);
        GOPIM_ASSERT(idx < counts.size(), "unknown opcode in stream");
        ++counts[idx];
    }
    std::vector<std::pair<std::string, uint64_t>> histogram;
    for (size_t i = 0; i < counts.size(); ++i)
        histogram.emplace_back(toString(kAll[i]), counts[i]);
    return histogram;
}

StreamBuilder::StreamBuilder(std::string label)
    : label_(std::move(label))
{
}

StreamBuilder &
StreamBuilder::regime(pipeline::Regime regime)
{
    desc_.regime = regime;
    return *this;
}

StreamBuilder &
StreamBuilder::microBatches(uint32_t total, uint32_t perBatch)
{
    desc_.totalMicroBatches = total;
    desc_.microBatchesPerBatch = perBatch;
    return *this;
}

StreamBuilder &
StreamBuilder::seed(uint64_t seed)
{
    desc_.seed = seed;
    return *this;
}

StreamBuilder &
StreamBuilder::bufferSlots(uint32_t slots)
{
    desc_.bufferSlots = slots;
    return *this;
}

StreamBuilder &
StreamBuilder::replicasAsServers(bool on)
{
    desc_.replicasAsServers = on;
    return *this;
}

StreamBuilder &
StreamBuilder::writeRetry(double prob, double fraction)
{
    desc_.writeRetryProb = prob;
    desc_.writeFraction = fraction;
    return *this;
}

StreamBuilder &
StreamBuilder::refresh(uint32_t everyMicroBatches, double stallNs)
{
    desc_.refreshEveryMicroBatches = everyMicroBatches;
    desc_.refreshStallNs = stallNs;
    return *this;
}

StreamBuilder &
StreamBuilder::stage(double serviceTimeNs, uint32_t replicas)
{
    desc_.stageTimesNs.push_back(serviceTimeNs);
    desc_.replicas.push_back(replicas);
    return *this;
}

CommandStream
StreamBuilder::build() const
{
    return lowerSchedule(desc_, label_);
}

} // namespace gopim::isa
