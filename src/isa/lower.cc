#include "isa/lower.hh"

#include "common/logging.hh"

namespace gopim::isa {

CommandStream
lowerSchedule(const ScheduleDesc &desc, std::string label)
{
    // Surface the specific diagnostic: each misuse (no stages, no
    // micro-batches, out-of-range retry probability, ...) dies with
    // its own message, so callers and tests can tell them apart.
    if (const std::string problem = desc.validate(); !problem.empty())
        panic("cannot lower invalid schedule desc: ", problem);
    CommandStream stream;
    stream.label = std::move(label);
    stream.desc = desc;
    stream.desc.normalize();

    const ScheduleDesc &d = stream.desc;
    const uint32_t numStages =
        static_cast<uint32_t>(d.stageTimesNs.size());
    const auto [chunkSize, numChunks] = d.chunkStructure();
    const bool retryModel = d.writeRetryProb > 0.0;
    const bool refresh = d.refreshActive();

    // Per-stage MVM/ROW_WRITE split of the base service time. When
    // the retry model is off the whole base time rides on MVM and no
    // ROW_WRITE op exists; when on, the split mirrors
    // sim::makeWriteRetrySampler exactly (bit-for-bit arithmetic).
    std::vector<uint64_t> mvmBits(numStages);
    std::vector<uint64_t> writeBits(numStages, 0);
    for (uint32_t s = 0; s < numStages; ++s) {
        const double base = d.stageTimesNs[s];
        if (retryModel) {
            mvmBits[s] =
                Command::bitsOf(base * (1.0 - d.writeFraction));
            writeBits[s] = Command::bitsOf(base * d.writeFraction);
        } else {
            mvmBits[s] = Command::bitsOf(base);
        }
    }
    const uint64_t refreshBits =
        refresh ? Command::bitsOf(d.refreshStallNs) : 0;

    auto &out = stream.commands;
    const size_t perMb =
        static_cast<size_t>(numStages) * (retryModel ? 4 : 3);
    out.reserve(numStages + numChunks +
                static_cast<size_t>(chunkSize) * numChunks * perMb +
                1);

    for (uint32_t s = 0; s < numStages; ++s)
        out.push_back({Opcode::CfgStage, s, 0, d.replicas[s],
                       Command::bitsOf(d.stageTimesNs[s])});

    for (uint32_t chunk = 0; chunk < numChunks; ++chunk) {
        out.push_back({Opcode::Barrier, 0, chunk, chunkSize, 0});
        for (uint32_t j = 0; j < chunkSize; ++j) {
            const uint32_t g = chunk * chunkSize + j;
            for (uint32_t s = 0; s < numStages; ++s) {
                if (s > 0)
                    out.push_back({Opcode::NocRecv, s, g, 0, 0});
                out.push_back({Opcode::Mvm, s, g, 0, mvmBits[s]});
                if (retryModel)
                    out.push_back(
                        {Opcode::RowWrite, s, g, 1, writeBits[s]});
                if (refresh &&
                    (g + 1) % d.refreshEveryMicroBatches == 0)
                    out.push_back(
                        {Opcode::Refresh, s, g, 0, refreshBits});
                if (s + 1 < numStages)
                    out.push_back({Opcode::NocSend, s, g, 0, 0});
            }
        }
    }
    out.push_back({Opcode::Sync, 0, 0, out.size(), 0});
    return stream;
}

} // namespace gopim::isa
