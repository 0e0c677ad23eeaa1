#include "isa/trace_io.hh"

#include <bit>
#include <fstream>
#include <sstream>

#include "common/hash.hh"

namespace gopim::isa {

const char kTraceMagic[4] = {'G', 'P', 'I', 'S'};

const CommandStream *
TraceBundle::find(uint64_t fingerprint) const
{
    for (const CommandStream &stream : streams)
        if (stream.fingerprint() == fingerprint)
            return &stream;
    return nullptr;
}

namespace {

/** Does `op` carry a duration payload on the wire? */
bool
opTimed(Opcode op)
{
    switch (op) {
      case Opcode::CfgStage:
      case Opcode::Mvm:
      case Opcode::RowWrite:
      case Opcode::Refresh:
        return true;
      default:
        return false;
    }
}

void
putVarint(std::string &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

void
putFixed64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putFixed16(std::string &out, uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

/** Bounds-checked little-endian cursor over the trace bytes. */
class Cursor
{
  public:
    Cursor(const std::string &bytes, size_t begin, size_t end)
        : bytes_(bytes), pos_(begin), end_(end)
    {
    }

    size_t pos() const { return pos_; }
    size_t remaining() const { return end_ - pos_; }
    bool done() const { return pos_ == end_; }

    bool getVarint(uint64_t *out)
    {
        uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            if (pos_ >= end_)
                return false;
            const uint8_t byte =
                static_cast<uint8_t>(bytes_[pos_++]);
            v |= static_cast<uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0) {
                *out = v;
                return true;
            }
        }
        return false; // over-long varint
    }

    bool getFixed64(uint64_t *out)
    {
        if (remaining() < 8)
            return false;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(
                     static_cast<uint8_t>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        *out = v;
        return true;
    }

    bool getFixed16(uint16_t *out)
    {
        if (remaining() < 2)
            return false;
        *out = static_cast<uint16_t>(
            static_cast<uint8_t>(bytes_[pos_]) |
            (static_cast<uint8_t>(bytes_[pos_ + 1]) << 8));
        pos_ += 2;
        return true;
    }

    bool getBytes(size_t n, std::string *out)
    {
        if (remaining() < n)
            return false;
        out->assign(bytes_, pos_, n);
        pos_ += n;
        return true;
    }

  private:
    const std::string &bytes_;
    size_t pos_;
    size_t end_;
};

std::string
encodeStreamPayload(const CommandStream &stream)
{
    const ScheduleDesc &d = stream.desc;
    std::string out;
    putVarint(out, stream.label.size());
    out.append(stream.label);
    putVarint(out, d.stageTimesNs.size());
    out.push_back(static_cast<char>(d.regime));
    out.push_back(d.replicasAsServers ? 1 : 0);
    putVarint(out, d.totalMicroBatches);
    putVarint(out, d.microBatchesPerBatch);
    putVarint(out, d.seed);
    putVarint(out, d.bufferSlots);
    putFixed64(out, Command::bitsOf(d.writeRetryProb));
    putFixed64(out, Command::bitsOf(d.writeFraction));
    putVarint(out, d.refreshEveryMicroBatches);
    putFixed64(out, Command::bitsOf(d.refreshStallNs));
    putFixed64(out, d.fingerprint());
    for (size_t i = 0; i < d.stageTimesNs.size(); ++i) {
        putFixed64(out, Command::bitsOf(d.stageTimesNs[i]));
        putVarint(out, i < d.replicas.size() ? d.replicas[i] : 1u);
    }
    putVarint(out, stream.commands.size());
    for (const Command &cmd : stream.commands) {
        out.push_back(static_cast<char>(cmd.op));
        putVarint(out, cmd.stage);
        putVarint(out, cmd.microBatch);
        putVarint(out, cmd.operand);
        if (opTimed(cmd.op))
            putFixed64(out, cmd.durationBits);
    }
    return out;
}

bool
decodeStreamPayload(const std::string &payload, size_t index,
                    CommandStream *stream, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        *error = "stream " + std::to_string(index) + ": " + what;
        return false;
    };
    Cursor cur(payload, 0, payload.size());
    uint64_t labelLen = 0;
    if (!cur.getVarint(&labelLen) ||
        !cur.getBytes(labelLen, &stream->label))
        return fail("truncated label");

    ScheduleDesc &d = stream->desc;
    uint64_t numStages = 0;
    if (!cur.getVarint(&numStages))
        return fail("truncated stage count");
    if (numStages == 0)
        return fail("zero stages");
    if (numStages > cur.remaining())
        return fail("stage count exceeds payload size");
    if (cur.remaining() < 2)
        return fail("truncated desc header");
    {
        uint8_t regime = static_cast<uint8_t>(payload[cur.pos()]);
        uint8_t servers =
            static_cast<uint8_t>(payload[cur.pos() + 1]);
        std::string skip;
        cur.getBytes(2, &skip);
        if (regime >
            static_cast<uint8_t>(pipeline::Regime::IntraInterBatch))
            return fail("unknown regime byte " +
                        std::to_string(regime));
        if (servers > 1)
            return fail("invalid replicas-as-servers flag");
        d.regime = static_cast<pipeline::Regime>(regime);
        d.replicasAsServers = servers == 1;
    }
    uint64_t total = 0, perBatch = 0, bufferSlots = 0;
    uint64_t retryBits = 0, fractionBits = 0, stallBits = 0;
    uint64_t refreshEvery = 0, fingerprint = 0;
    if (!cur.getVarint(&total) || !cur.getVarint(&perBatch) ||
        !cur.getVarint(&d.seed) || !cur.getVarint(&bufferSlots) ||
        !cur.getFixed64(&retryBits) ||
        !cur.getFixed64(&fractionBits) ||
        !cur.getVarint(&refreshEvery) ||
        !cur.getFixed64(&stallBits) ||
        !cur.getFixed64(&fingerprint))
        return fail("truncated desc header");
    d.totalMicroBatches = static_cast<uint32_t>(total);
    d.microBatchesPerBatch = static_cast<uint32_t>(perBatch);
    d.bufferSlots = static_cast<uint32_t>(bufferSlots);
    d.writeRetryProb = std::bit_cast<double>(retryBits);
    d.writeFraction = std::bit_cast<double>(fractionBits);
    d.refreshEveryMicroBatches = static_cast<uint32_t>(refreshEvery);
    d.refreshStallNs = std::bit_cast<double>(stallBits);

    d.stageTimesNs.resize(numStages);
    d.replicas.resize(numStages);
    for (uint64_t i = 0; i < numStages; ++i) {
        uint64_t timeBits = 0, replicas = 0;
        if (!cur.getFixed64(&timeBits) || !cur.getVarint(&replicas))
            return fail("truncated stage table");
        d.stageTimesNs[i] = std::bit_cast<double>(timeBits);
        d.replicas[i] = static_cast<uint32_t>(replicas);
    }
    if (d.fingerprint() != fingerprint)
        return fail("desc fingerprint mismatch (corrupt payload)");

    uint64_t commandCount = 0;
    if (!cur.getVarint(&commandCount))
        return fail("truncated command count");
    // Every command costs at least 4 wire bytes; reject counts the
    // remaining payload cannot possibly hold before reserving.
    if (commandCount > cur.remaining() / 4 + 1)
        return fail("command count exceeds payload size");
    stream->commands.resize(commandCount);
    for (uint64_t i = 0; i < commandCount; ++i) {
        Command &cmd = stream->commands[i];
        if (cur.done())
            return fail("truncated at command " + std::to_string(i));
        const uint8_t raw =
            static_cast<uint8_t>(payload[cur.pos()]);
        std::string skip;
        cur.getBytes(1, &skip);
        if (!opcodeKnown(raw))
            return fail("unknown opcode " + std::to_string(raw) +
                        " at command " + std::to_string(i));
        cmd.op = static_cast<Opcode>(raw);
        uint64_t stage = 0, mb = 0;
        if (!cur.getVarint(&stage) || !cur.getVarint(&mb) ||
            !cur.getVarint(&cmd.operand))
            return fail("truncated at command " + std::to_string(i));
        cmd.stage = static_cast<uint32_t>(stage);
        cmd.microBatch = static_cast<uint32_t>(mb);
        if (opTimed(cmd.op) && !cur.getFixed64(&cmd.durationBits))
            return fail("truncated duration at command " +
                        std::to_string(i));
    }
    if (!cur.done())
        return fail(std::to_string(cur.remaining()) +
                    " trailing bytes after the last command");
    return true;
}

} // namespace

std::string
encodeBundle(const TraceBundle &bundle)
{
    std::string out(kTraceMagic, sizeof(kTraceMagic));
    putFixed16(out, kTraceFormatVersion);
    putVarint(out, bundle.streams.size());
    for (const CommandStream &stream : bundle.streams) {
        const std::string payload = encodeStreamPayload(stream);
        putVarint(out, payload.size());
        out.append(payload);
        putFixed64(out, fnv1a64(payload));
    }
    return out;
}

bool
decodeBundle(const std::string &bytes, TraceBundle *bundle,
             std::string *error)
{
    bundle->streams.clear();
    std::string errorStorage;
    if (!error)
        error = &errorStorage;
    Cursor cur(bytes, 0, bytes.size());

    std::string magic;
    if (!cur.getBytes(sizeof(kTraceMagic), &magic) ||
        magic != std::string(kTraceMagic, sizeof(kTraceMagic))) {
        *error = "not a GoPIM ISA trace (bad magic)";
        return false;
    }
    uint16_t version = 0;
    if (!cur.getFixed16(&version)) {
        *error = "truncated version field";
        return false;
    }
    if (version != kTraceFormatVersion) {
        *error = "unsupported trace version " +
                 std::to_string(version) + " (this build reads " +
                 std::to_string(kTraceFormatVersion) + ")";
        return false;
    }
    uint64_t count = 0;
    if (!cur.getVarint(&count)) {
        *error = "truncated stream count";
        return false;
    }
    for (uint64_t i = 0; i < count; ++i) {
        uint64_t payloadLen = 0;
        if (!cur.getVarint(&payloadLen)) {
            *error = "stream " + std::to_string(i) +
                     ": truncated length";
            bundle->streams.clear();
            return false;
        }
        std::string payload;
        uint64_t checksum = 0;
        if (!cur.getBytes(payloadLen, &payload) ||
            !cur.getFixed64(&checksum)) {
            *error = "stream " + std::to_string(i) +
                     ": truncated payload";
            bundle->streams.clear();
            return false;
        }
        if (fnv1a64(payload) != checksum) {
            *error = "stream " + std::to_string(i) +
                     ": checksum mismatch (corrupt trace)";
            bundle->streams.clear();
            return false;
        }
        CommandStream stream;
        if (!decodeStreamPayload(payload, i, &stream, error)) {
            bundle->streams.clear();
            return false;
        }
        bundle->streams.push_back(std::move(stream));
    }
    if (!cur.done()) {
        *error = std::to_string(cur.remaining()) +
                 " trailing bytes after the last stream";
        bundle->streams.clear();
        return false;
    }
    return true;
}

bool
writeTraceFile(const std::string &path, const TraceBundle &bundle,
               std::string *error)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        if (error)
            *error = "cannot open '" + path + "' for writing";
        return false;
    }
    const std::string bytes = encodeBundle(bundle);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
        if (error)
            *error = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

bool
readTraceFile(const std::string &path, TraceBundle *bundle,
              std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "' for reading";
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        if (error)
            *error = "read from '" + path + "' failed";
        return false;
    }
    return decodeBundle(buffer.str(), bundle, error);
}

void
StreamRecorder::record(CommandStream stream)
{
    const uint64_t key = stream.fingerprint();
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = streams_.try_emplace(key);
    // Keep the lexicographically smallest label for a fingerprint so
    // the drained bundle is identical for any run interleaving.
    if (inserted || stream.label < it->second.label)
        it->second = std::move(stream);
}

TraceBundle
StreamRecorder::bundle() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    TraceBundle bundle;
    bundle.streams.reserve(streams_.size());
    for (const auto &[key, stream] : streams_)
        bundle.streams.push_back(stream);
    return bundle;
}

size_t
StreamRecorder::streamCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return streams_.size();
}

} // namespace gopim::isa
