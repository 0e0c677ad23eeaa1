/**
 * @file
 * Tests for the src/isa command-stream layer and the replay engine:
 * lowering invariants (opcode layout, refresh placement, bit-exact
 * MVM/ROW_WRITE splits), the versioned binary trace format (byte-
 * exact round trips, the pinned golden fixture, every truncation/
 * corruption error path), and the headline contract — ReplayEngine
 * times a stream written to disk and read back bit-identically to
 * the live event-driven engine for every seed system and
 * fault/repair configuration.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/hash.hh"
#include "core/accelerator.hh"
#include "core/harness.hh"
#include "core/options.hh"
#include "core/report.hh"
#include "core/systems.hh"
#include "gcn/workload.hh"
#include "isa/isa.hh"
#include "isa/lower.hh"
#include "isa/trace_io.hh"
#include "isa/verify.hh"
#include "serve/request.hh"
#include "sim/engine.hh"
#include "sim/replay.hh"

namespace gopim {
namespace {

/** Self-deleting temp file path for disk round-trip tests. */
class TempTracePath
{
  public:
    explicit TempTracePath(const std::string &tag)
        : path_("/tmp/gopim_test_isa_" + tag + "_" +
                std::to_string(::getpid()) + ".trace")
    {
    }
    ~TempTracePath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

/**
 * The same canonical bundle gopim_trace --selftest-write emits; the
 * golden-fixture test pins its exact bytes, so any change here (or
 * in the encoder) must come with a format version bump and a
 * regenerated tests/data/isa_golden_v1.trace.
 */
isa::TraceBundle
canonicalBundle()
{
    isa::TraceBundle bundle;
    bundle.streams.push_back(isa::StreamBuilder("selftest serial")
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

uint64_t
countOp(const isa::CommandStream &stream, isa::Opcode op)
{
    uint64_t count = 0;
    for (const auto &cmd : stream.commands)
        if (cmd.op == op)
            ++count;
    return count;
}

// ---------------------------------------------------------------
// Lowering invariants
// ---------------------------------------------------------------

TEST(Lowering, StreamBuilderEmitsCanonicalLayout)
{
    const auto stream = isa::StreamBuilder("layout")
                            .regime(pipeline::Regime::Serial)
                            .microBatches(4)
                            .stage(10.0)
                            .stage(20.0)
                            .stage(30.0)
                            .build();
    EXPECT_EQ(isa::validateStream(stream), "");
    // Serial: one chunk per micro-batch.
    EXPECT_EQ(countOp(stream, isa::Opcode::CfgStage), 3u);
    EXPECT_EQ(countOp(stream, isa::Opcode::Barrier), 4u);
    EXPECT_EQ(countOp(stream, isa::Opcode::Mvm), 12u);
    EXPECT_EQ(countOp(stream, isa::Opcode::RowWrite), 0u);
    EXPECT_EQ(countOp(stream, isa::Opcode::NocSend), 8u);
    EXPECT_EQ(countOp(stream, isa::Opcode::NocRecv), 8u);
    EXPECT_EQ(countOp(stream, isa::Opcode::Sync), 1u);
    // SYNC closes the stream and counts everything before it.
    const auto &last = stream.commands.back();
    EXPECT_EQ(last.op, isa::Opcode::Sync);
    EXPECT_EQ(last.operand, stream.commands.size() - 1);
}

TEST(Lowering, RefreshUsesGlobalMicroBatchIndex)
{
    // Serial regime chunks one micro-batch at a time; refresh must
    // still fire on the *global* index (after mb 1 and 3), exactly
    // like the event engine's sampler.
    const auto stream = isa::StreamBuilder("refresh")
                            .regime(pipeline::Regime::Serial)
                            .microBatches(4)
                            .refresh(2, 99.0)
                            .stage(10.0)
                            .stage(20.0)
                            .build();
    EXPECT_EQ(isa::validateStream(stream), "");
    std::vector<uint32_t> refreshMbs;
    for (const auto &cmd : stream.commands)
        if (cmd.op == isa::Opcode::Refresh) {
            refreshMbs.push_back(cmd.microBatch);
            EXPECT_DOUBLE_EQ(cmd.durationNs(), 99.0);
        }
    // Both stages refresh at mb 1 and mb 3.
    EXPECT_EQ(refreshMbs, (std::vector<uint32_t>{1, 1, 3, 3}));
}

TEST(Lowering, MvmRowWriteSplitIsBitExact)
{
    const double base = 123.456;
    const double fraction = 0.3;
    const auto stream = isa::StreamBuilder("split")
                            .microBatches(1)
                            .writeRetry(0.2, fraction)
                            .stage(base)
                            .build();
    bool sawMvm = false, sawWrite = false;
    for (const auto &cmd : stream.commands) {
        if (cmd.op == isa::Opcode::Mvm) {
            sawMvm = true;
            // The exact arithmetic sim::makeWriteRetrySampler uses.
            EXPECT_EQ(cmd.durationBits,
                      isa::Command::bitsOf(base * (1.0 - fraction)));
        }
        if (cmd.op == isa::Opcode::RowWrite) {
            sawWrite = true;
            EXPECT_EQ(cmd.durationBits,
                      isa::Command::bitsOf(base * fraction));
            EXPECT_EQ(cmd.operand, 1u); // nominal single attempt
        }
    }
    EXPECT_TRUE(sawMvm);
    EXPECT_TRUE(sawWrite);
}

TEST(Lowering, EmptyReplicasFingerprintLikeAllOnes)
{
    isa::ScheduleDesc bare;
    bare.stageTimesNs = {10.0, 20.0};
    bare.totalMicroBatches = 4;
    isa::ScheduleDesc ones = bare;
    ones.replicas = {1, 1};
    EXPECT_EQ(bare.fingerprint(), ones.fingerprint());
    isa::ScheduleDesc twos = bare;
    twos.replicas = {2, 1};
    EXPECT_NE(bare.fingerprint(), twos.fingerprint());
}

TEST(Lowering, ValidateStreamCatchesTampering)
{
    auto stream = isa::StreamBuilder("tamper")
                      .microBatches(3)
                      .stage(10.0)
                      .stage(20.0)
                      .build();
    ASSERT_EQ(isa::validateStream(stream), "");

    auto mutated = stream;
    mutated.commands[3].durationBits ^= 1; // nudge one duration
    EXPECT_NE(isa::validateStream(mutated), "");

    mutated = stream;
    mutated.commands.pop_back(); // drop the SYNC
    EXPECT_NE(isa::validateStream(mutated), "");

    mutated = stream;
    mutated.desc.totalMicroBatches = 99; // desc/commands mismatch
    EXPECT_NE(isa::validateStream(mutated), "");

    mutated = stream;
    mutated.desc.stageTimesNs.clear(); // structurally invalid desc
    EXPECT_NE(isa::validateStream(mutated), "");
}

TEST(Lowering, NominalTimingMatchesReplayForDefaultKnobs)
{
    // Deterministic streams (no retries) time identically through
    // the closed-form preview and the event-path replay.
    const auto stream = isa::StreamBuilder("nominal")
                            .regime(pipeline::Regime::IntraBatch)
                            .microBatches(12, 4)
                            .refresh(3, 50.0)
                            .stage(10.0)
                            .stage(25.0)
                            .stage(15.0)
                            .build();
    const auto nominal = isa::nominalTiming(stream);
    const auto replayed =
        sim::ReplayEngine().replayStream(stream, sim::SimContext{});
    EXPECT_DOUBLE_EQ(nominal.makespanNs, replayed.makespanNs);
    ASSERT_EQ(nominal.busyNs.size(), replayed.busyNs.size());
    for (size_t i = 0; i < nominal.busyNs.size(); ++i)
        EXPECT_DOUBLE_EQ(nominal.busyNs[i], replayed.busyNs[i]);
}

// ---------------------------------------------------------------
// Binary trace format
// ---------------------------------------------------------------

TEST(TraceIo, RoundTripIsByteExact)
{
    const isa::TraceBundle bundle = canonicalBundle();
    const std::string bytes = isa::encodeBundle(bundle);

    isa::TraceBundle decoded;
    std::string error;
    ASSERT_TRUE(isa::decodeBundle(bytes, &decoded, &error)) << error;
    ASSERT_EQ(decoded.streams.size(), bundle.streams.size());
    for (size_t i = 0; i < bundle.streams.size(); ++i)
        EXPECT_EQ(decoded.streams[i], bundle.streams[i]);
    EXPECT_EQ(isa::encodeBundle(decoded), bytes);
}

TEST(TraceIo, DiskRoundTripPreservesStreams)
{
    const isa::TraceBundle bundle = canonicalBundle();
    TempTracePath path("roundtrip");
    std::string error;
    ASSERT_TRUE(isa::writeTraceFile(path.str(), bundle, &error))
        << error;
    isa::TraceBundle loaded;
    ASSERT_TRUE(isa::readTraceFile(path.str(), &loaded, &error))
        << error;
    ASSERT_EQ(loaded.streams.size(), bundle.streams.size());
    for (size_t i = 0; i < bundle.streams.size(); ++i) {
        EXPECT_EQ(loaded.streams[i], bundle.streams[i]);
        EXPECT_EQ(isa::validateStream(loaded.streams[i]), "");
    }
}

TEST(TraceIo, GoldenFixtureIsPinnedByteExact)
{
    // The fixture was written by gopim_trace --selftest-write; the
    // in-tree encoder must reproduce it bit for bit. If this fails
    // after a deliberate format change: bump kTraceFormatVersion,
    // regenerate the fixture, and add a new golden file rather than
    // silently rewriting history.
    std::ifstream in(std::string(GOPIM_TEST_DATA_DIR) +
                         "/isa_golden_v1.trace",
                     std::ios::binary);
    ASSERT_TRUE(in) << "missing tests/data/isa_golden_v1.trace";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string golden = buffer.str();

    EXPECT_EQ(isa::encodeBundle(canonicalBundle()), golden);

    isa::TraceBundle decoded;
    std::string error;
    ASSERT_TRUE(isa::decodeBundle(golden, &decoded, &error)) << error;
    ASSERT_EQ(decoded.streams.size(), 3u);
    for (const auto &stream : decoded.streams)
        EXPECT_EQ(isa::validateStream(stream), "");
}

TEST(TraceIo, BadMagicAndVersionAreDistinctErrors)
{
    std::string bytes = isa::encodeBundle(canonicalBundle());
    isa::TraceBundle bundle;
    std::string error;

    std::string notATrace = bytes;
    notATrace[0] = 'X';
    EXPECT_FALSE(isa::decodeBundle(notATrace, &bundle, &error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;

    std::string wrongVersion = bytes;
    wrongVersion[4] = 99; // version u16 lives at bytes 4-5
    EXPECT_FALSE(isa::decodeBundle(wrongVersion, &bundle, &error));
    EXPECT_NE(error.find("unsupported trace version 99"),
              std::string::npos)
        << error;
}

TEST(TraceIo, EveryTruncationPrefixFailsGracefully)
{
    const std::string bytes = isa::encodeBundle(canonicalBundle());
    for (size_t len = 0; len < bytes.size(); ++len) {
        isa::TraceBundle bundle;
        std::string error;
        EXPECT_FALSE(isa::decodeBundle(bytes.substr(0, len), &bundle,
                                       &error))
            << "prefix of length " << len << " decoded successfully";
        EXPECT_FALSE(error.empty());
        EXPECT_TRUE(bundle.streams.empty());
    }
}

TEST(TraceIo, PayloadCorruptionIsCaughtByChecksum)
{
    const std::string bytes = isa::encodeBundle(canonicalBundle());
    // Flip one byte somewhere inside the first stream's payload
    // (past the 4+2+1 byte file header and the length varint).
    std::string corrupt = bytes;
    corrupt[16] = static_cast<char>(corrupt[16] ^ 0x40);
    isa::TraceBundle bundle;
    std::string error;
    EXPECT_FALSE(isa::decodeBundle(corrupt, &bundle, &error));
    EXPECT_NE(error.find("mismatch"), std::string::npos) << error;
}

TEST(TraceIo, TrailingGarbageIsRejected)
{
    std::string bytes = isa::encodeBundle(canonicalBundle());
    bytes += "extra";
    isa::TraceBundle bundle;
    std::string error;
    EXPECT_FALSE(isa::decodeBundle(bytes, &bundle, &error));
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(TraceIo, MissingFileReportsOpenError)
{
    isa::TraceBundle bundle;
    std::string error;
    EXPECT_FALSE(isa::readTraceFile("/nonexistent/gopim.trace",
                                    &bundle, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TraceIo, RecorderDeduplicatesByFingerprint)
{
    isa::StreamRecorder recorder;
    auto stream = isa::StreamBuilder("zebra")
                      .microBatches(2)
                      .stage(10.0)
                      .build();
    recorder.record(stream);
    stream.label = "aardvark"; // same desc, different producer label
    recorder.record(stream);
    EXPECT_EQ(recorder.streamCount(), 1u);
    // The lexicographically smallest label wins, making the drained
    // bundle independent of recording order.
    EXPECT_EQ(recorder.bundle().streams.front().label, "aardvark");
}

// ---------------------------------------------------------------
// Semantic verifier (isa::verifyStream)
// ---------------------------------------------------------------

bool
hasCode(const std::vector<isa::VerifyIssue> &issues,
        isa::VerifyCode code)
{
    for (const isa::VerifyIssue &issue : issues)
        if (issue.code == code)
            return true;
    return false;
}

/** Index of the first command with opcode `op` (asserts existence). */
size_t
firstOp(const isa::CommandStream &stream, isa::Opcode op)
{
    for (size_t i = 0; i < stream.commands.size(); ++i)
        if (stream.commands[i].op == op)
            return i;
    ADD_FAILURE() << "stream has no " << isa::toString(op);
    return 0;
}

TEST(Verify, EveryLoweredScheduleVerifiesClean)
{
    // Anything the canonical lowering produces must pass the flow
    // verifier — across regimes, refresh, retries and replicas.
    for (const auto regime :
         {pipeline::Regime::Serial, pipeline::Regime::IntraBatch,
          pipeline::Regime::IntraInterBatch}) {
        for (const uint32_t refreshEvery : {0u, 2u}) {
            for (const double retryFraction : {0.0, 0.3}) {
                isa::StreamBuilder builder("grid");
                builder.regime(regime)
                    .microBatches(6, 3)
                    .seed(5)
                    .stage(10.0)
                    .stage(25.0, 2)
                    .stage(40.0);
                if (refreshEvery != 0)
                    builder.refresh(refreshEvery, 75.0);
                if (retryFraction != 0.0)
                    builder.writeRetry(0.2, retryFraction);
                const auto stream = builder.build();
                EXPECT_TRUE(isa::verifyStream(stream).empty())
                    << isa::verifySummary(stream);
            }
        }
    }
    for (const auto &stream : canonicalBundle().streams)
        EXPECT_TRUE(isa::verifyStream(stream).empty())
            << stream.label << ": " << isa::verifySummary(stream);
}

TEST(Verify, GoldenTraceVerifiesClean)
{
    std::ifstream in(std::string(GOPIM_TEST_DATA_DIR) +
                         "/isa_golden_v1.trace",
                     std::ios::binary);
    ASSERT_TRUE(in) << "missing tests/data/isa_golden_v1.trace";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    isa::TraceBundle decoded;
    std::string error;
    ASSERT_TRUE(isa::decodeBundle(buffer.str(), &decoded, &error))
        << error;
    for (const auto &stream : decoded.streams)
        EXPECT_EQ(isa::verifySummary(stream), "") << stream.label;
}

TEST(Verify, InvalidDescShortCircuits)
{
    auto stream = isa::StreamBuilder("baddesc")
                      .microBatches(2)
                      .stage(10.0)
                      .build();
    stream.desc.stageTimesNs.clear();
    const auto issues = isa::verifyStream(stream);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].code, isa::VerifyCode::DescInvalid);
}

TEST(Verify, CfgPrologueOrderAndMismatch)
{
    const auto stream = isa::StreamBuilder("cfg")
                            .microBatches(2)
                            .stage(10.0)
                            .stage(20.0)
                            .build();
    ASSERT_TRUE(isa::verifyStream(stream).empty());

    // Prologue out of order: swap the two CFG_STAGEs.
    auto mutated = stream;
    std::swap(mutated.commands[0], mutated.commands[1]);
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::CfgOrder));

    // Work with no CFG_STAGE for its stage.
    mutated = stream;
    mutated.commands.erase(mutated.commands.begin(),
                           mutated.commands.begin() + 2);
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::CfgOrder));

    // Replica count contradicting the header.
    mutated = stream;
    mutated.commands[0].operand += 1;
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::CfgMismatch));

    // Stage service-time bits contradicting the header.
    mutated = stream;
    mutated.commands[1].durationBits ^= 1;
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::CfgMismatch));
}

TEST(Verify, OperandRangeAndDurationBits)
{
    const auto stream = isa::StreamBuilder("rng")
                            .microBatches(2)
                            .stage(10.0)
                            .stage(20.0)
                            .build();

    auto mutated = stream;
    const size_t mvm = firstOp(mutated, isa::Opcode::Mvm);
    mutated.commands[mvm].stage = 99;
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::OperandRange));

    mutated = stream;
    mutated.commands[firstOp(mutated, isa::Opcode::Mvm)].microBatch =
        99;
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::OperandRange));

    // A timed op whose bits decode to a negative duration.
    mutated = stream;
    mutated.commands[firstOp(mutated, isa::Opcode::Mvm)]
        .durationBits = isa::Command::bitsOf(-5.0);
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::DurationInvalid));

    // An untimed op carrying a payload.
    mutated = stream;
    mutated.commands[firstOp(mutated, isa::Opcode::NocSend)]
        .durationBits = 1;
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::DurationInvalid));
}

TEST(Verify, NocPairingAndDeadlock)
{
    const auto stream = isa::StreamBuilder("noc")
                            .microBatches(2)
                            .stage(10.0)
                            .stage(20.0)
                            .build();

    // Receive moved ahead of its matching send: would block forever.
    auto mutated = stream;
    const size_t send = firstOp(mutated, isa::Opcode::NocSend);
    const size_t recv = firstOp(mutated, isa::Opcode::NocRecv);
    ASSERT_LT(send, recv);
    std::swap(mutated.commands[send], mutated.commands[recv]);
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::NocDeadlock));

    // Send that nothing ever receives.
    mutated = stream;
    mutated.commands.erase(mutated.commands.begin() +
                           firstOp(mutated, isa::Opcode::NocRecv));
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::NocUnmatched));

    // Send from the last stage: no downstream consumer exists.
    mutated = stream;
    mutated.commands[firstOp(mutated, isa::Opcode::NocSend)].stage =
        1;
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::NocUnmatched));
}

TEST(Verify, BarrierBracketing)
{
    const auto stream = isa::StreamBuilder("barrier")
                            .microBatches(3)
                            .stage(10.0)
                            .build();

    auto mutated = stream;
    const size_t barrier = firstOp(mutated, isa::Opcode::Barrier);
    mutated.commands[barrier].microBatch += 1; // chunk out of order
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::BarrierOrder));

    mutated = stream;
    mutated.commands[firstOp(mutated, isa::Opcode::Barrier)]
        .operand += 1; // chunk size contradicts the header
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::BarrierOrder));

    // Work before any chunk opened.
    mutated = stream;
    mutated.commands.erase(mutated.commands.begin() +
                           firstOp(mutated, isa::Opcode::Barrier));
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::BarrierOrder));
}

TEST(Verify, RefreshInvariants)
{
    const auto stream = isa::StreamBuilder("refresh")
                            .regime(pipeline::Regime::IntraBatch)
                            .microBatches(8, 4)
                            .refresh(2, 500.0)
                            .stage(64.0)
                            .stage(128.0)
                            .build();
    ASSERT_TRUE(isa::verifyStream(stream).empty());

    // Off-cadence refresh (mb 1 -> 2 breaks the every-2 rhythm but
    // stays inside the same chunk).
    auto mutated = stream;
    const size_t refresh = firstOp(mutated, isa::Opcode::Refresh);
    ASSERT_EQ(mutated.commands[refresh].microBatch, 1u);
    mutated.commands[refresh].microBatch = 2;
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::RefreshInvariant));

    // Stall bits contradicting the header.
    mutated = stream;
    mutated.commands[firstOp(mutated, isa::Opcode::Refresh)]
        .durationBits ^= 1;
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::RefreshInvariant));

    // Refresh ops in a stream whose header declares no cadence.
    mutated = stream;
    mutated.desc.refreshEveryMicroBatches = 0;
    mutated.desc.refreshStallNs = 0.0;
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::RefreshInvariant));
}

TEST(Verify, SyncTermination)
{
    const auto stream = isa::StreamBuilder("sync")
                            .microBatches(2)
                            .stage(10.0)
                            .build();

    auto mutated = stream;
    mutated.commands.pop_back();
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::SyncMissing));

    mutated = stream;
    mutated.commands.insert(mutated.commands.end() - 1,
                            mutated.commands.back());
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::SyncMisplaced));

    mutated = stream;
    mutated.commands.back().operand += 1;
    EXPECT_TRUE(hasCode(isa::verifyStream(mutated),
                        isa::VerifyCode::SyncOperand));
}

TEST(Verify, SummaryReportsFirstIssueAndCount)
{
    auto stream = isa::StreamBuilder("summary")
                      .microBatches(2)
                      .stage(10.0)
                      .build();
    EXPECT_EQ(isa::verifySummary(stream), "");
    stream.commands.pop_back(); // drop SYNC
    const std::string summary = isa::verifySummary(stream);
    EXPECT_NE(summary.find("sync-missing"), std::string::npos)
        << summary;
    EXPECT_NE(summary.find("issue(s)"), std::string::npos) << summary;
}

TEST(Verify, EveryGoldenByteFlipIsRejected)
{
    // Corruption sweep: flip each byte of the pinned golden trace in
    // turn. The decoder (magic/version/varint/checksum layers) must
    // reject the mutation with a structured error — and if a
    // mutation ever slips through decoding, the semantic verifier or
    // the canonical validator must catch it. No single-byte
    // corruption may produce a silently-accepted trace.
    std::ifstream in(std::string(GOPIM_TEST_DATA_DIR) +
                         "/isa_golden_v1.trace",
                     std::ios::binary);
    ASSERT_TRUE(in) << "missing tests/data/isa_golden_v1.trace";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string golden = buffer.str();
    ASSERT_FALSE(golden.empty());

    size_t decodeRejected = 0;
    for (size_t i = 0; i < golden.size(); ++i) {
        std::string corrupted = golden;
        corrupted[i] = static_cast<char>(corrupted[i] ^ 0xFF);
        isa::TraceBundle decoded;
        std::string error;
        if (!isa::decodeBundle(corrupted, &decoded, &error)) {
            EXPECT_FALSE(error.empty()) << "byte " << i;
            ++decodeRejected;
            continue;
        }
        bool caught = false;
        for (const auto &stream : decoded.streams) {
            if (!isa::verifyStream(stream).empty() ||
                !isa::validateStream(stream).empty())
                caught = true;
        }
        EXPECT_TRUE(caught)
            << "byte " << i << " flipped and nothing rejected it";
    }
    // The format checksums every payload byte, so the decoder alone
    // should reject the overwhelming majority outright.
    EXPECT_GT(decodeRejected, golden.size() * 9 / 10);
}

// ---------------------------------------------------------------
// Replay bit-identity (the acceptance criterion)
// ---------------------------------------------------------------

void
expectBitIdentical(const core::RunResult &event,
                   const core::RunResult &replay,
                   const std::string &what)
{
    EXPECT_EQ(replay.engineName, "replay") << what;
    EXPECT_EQ(event.makespanNs, replay.makespanNs) << what;
    EXPECT_EQ(event.energyPj, replay.energyPj) << what;
    EXPECT_EQ(event.eventsProcessed, replay.eventsProcessed) << what;
    ASSERT_EQ(event.idleFraction.size(), replay.idleFraction.size());
    for (size_t i = 0; i < event.idleFraction.size(); ++i)
        EXPECT_EQ(event.idleFraction[i], replay.idleFraction[i])
            << what << " stage " << i;
    ASSERT_EQ(event.blockedNs.size(), replay.blockedNs.size());
    for (size_t i = 0; i < event.blockedNs.size(); ++i)
        EXPECT_EQ(event.blockedNs[i], replay.blockedNs[i])
            << what << " stage " << i;
}

core::RunResult
runWith(core::SystemKind kind, const std::string &dataset,
        const sim::SimContext &ctx, const fault::FaultConfig &fault)
{
    core::ComparisonHarness harness(
        reram::AcceleratorConfig::paperDefault(), ctx);
    harness.setFaultConfig(fault);
    return harness.runOne(kind, gcn::Workload::paperDefault(dataset));
}

/**
 * Record `kind` with the event engine, write the trace to disk,
 * read it back, replay, and demand bit identity.
 */
void
checkDiskReplay(core::SystemKind kind, const std::string &dataset,
                sim::SimContext ctx, const fault::FaultConfig &fault,
                const std::string &tag)
{
    ctx.engine = sim::EngineKind::EventDriven;
    ctx.isaRecorder = std::make_shared<isa::StreamRecorder>();
    const auto event = runWith(kind, dataset, ctx, fault);

    TempTracePath path(tag);
    std::string error;
    ASSERT_TRUE(isa::writeTraceFile(path.str(),
                                    ctx.isaRecorder->bundle(),
                                    &error))
        << error;
    isa::TraceBundle loaded;
    ASSERT_TRUE(isa::readTraceFile(path.str(), &loaded, &error))
        << error;

    sim::SimContext replayCtx = ctx;
    replayCtx.isaRecorder = nullptr;
    replayCtx.engine = sim::EngineKind::Replay;
    replayCtx.engineOverride =
        std::make_shared<sim::ReplayEngine>(std::move(loaded));
    const auto replay = runWith(kind, dataset, replayCtx, fault);
    expectBitIdentical(event, replay,
                       toString(kind) + " on " + dataset);
}

TEST(Replay, BitIdenticalToEventForEverySeedSystemViaDisk)
{
    // Non-default knobs everywhere so the replay cannot accidentally
    // pass by reproducing defaults: stochastic retries, bounded
    // buffers, a non-default seed.
    sim::SimContext ctx;
    ctx.seed = 9;
    ctx.event.writeRetryProb = 0.2;
    ctx.event.writeFraction = 0.35;
    ctx.event.inputBufferSlots = 2;
    for (core::SystemKind kind : core::allSystemKinds())
        checkDiskReplay(kind, "ddi", ctx, {},
                        std::string("sys_") + toString(kind));
}

TEST(Replay, BitIdenticalAcrossSeeds)
{
    for (uint64_t seed : {1ull, 7ull, 99ull}) {
        sim::SimContext ctx;
        ctx.seed = seed;
        ctx.event.writeRetryProb = 0.3;
        ctx.event.writeFraction = 0.5;
        checkDiskReplay(core::SystemKind::GoPim, "Cora", ctx, {},
                        "seed_" + std::to_string(seed));
    }
}

TEST(Replay, BitIdenticalForEveryFaultRepairConfig)
{
    for (fault::RepairKind repair :
         {fault::RepairKind::None, fault::RepairKind::SpareRows,
          fault::RepairKind::EccDuplicate,
          fault::RepairKind::Refresh}) {
        fault::FaultConfig fault;
        fault.params.stuckOnRate = 0.01;
        fault.params.stuckOffRate = 0.005;
        fault.params.driftPerEpoch = 0.002;
        fault.repair = repair;
        fault.refreshPeriodMb = 16;

        sim::SimContext ctx;
        ctx.seed = 5;
        ctx.event.writeRetryProb = 0.1;
        ctx.event.writeFraction = 0.3;
        checkDiskReplay(core::SystemKind::GoPim, "ddi", ctx, fault,
                        std::string("repair_") + toString(repair));
    }
}

TEST(Replay, ReplicasAsServersBitIdentical)
{
    sim::SimContext ctx;
    ctx.event.replicasAsServers = true;
    checkDiskReplay(core::SystemKind::GoPim, "ddi", ctx, {},
                    "servers");
}

TEST(Replay, SelfReplayEqualsEventWithoutATraceFile)
{
    // --engine=replay with no trace times the stream header built
    // from each request (descFromRequest) and must still match the
    // event engine exactly: every knob the event path reads has to
    // survive the header, for every system.
    struct KnobSet
    {
        std::string tag;
        sim::SimContext ctx;
        fault::FaultConfig fault;
    };
    KnobSet retries{"retries+buffers", {}, {}};
    retries.ctx.seed = 3;
    retries.ctx.event.writeRetryProb = 0.25;
    retries.ctx.event.writeFraction = 0.4;
    retries.ctx.event.inputBufferSlots = 2;
    KnobSet servers{"servers", {}, {}};
    servers.ctx.event.replicasAsServers = true;
    KnobSet refresh{"refresh", {}, {}};
    refresh.ctx.seed = 5;
    refresh.ctx.event.writeRetryProb = 0.1;
    refresh.ctx.event.writeFraction = 0.3;
    refresh.fault.params.stuckOnRate = 0.01;
    refresh.fault.params.stuckOffRate = 0.005;
    refresh.fault.params.driftPerEpoch = 0.002;
    refresh.fault.repair = fault::RepairKind::Refresh;
    refresh.fault.refreshPeriodMb = 16;

    for (const KnobSet &knobs : {retries, servers, refresh}) {
        for (core::SystemKind kind : core::allSystemKinds()) {
            sim::SimContext event = knobs.ctx;
            event.engine = sim::EngineKind::EventDriven;
            sim::SimContext replay = knobs.ctx;
            replay.engine = sim::EngineKind::Replay;
            const auto a = runWith(kind, "ddi", event, knobs.fault);
            const auto b = runWith(kind, "ddi", replay, knobs.fault);
            EXPECT_EQ(a.engineName, "event-driven");
            expectBitIdentical(a, b,
                               "self-replay " + knobs.tag + " " +
                                   toString(kind));
        }
    }
}

TEST(ReplayDeath, RequestMissingFromTraceIsFatal)
{
    // Re-exec instead of bare fork(): the harness tests above leave
    // the process-wide worker pool running, and a forked child
    // without those threads deadlocks.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A trace-mode replay engine fed a request it has no stream for
    // must die with a clear user error, not guess.
    sim::SimContext ctx;
    ctx.engine = sim::EngineKind::Replay;
    ctx.engineOverride =
        std::make_shared<sim::ReplayEngine>(isa::TraceBundle{});
    EXPECT_EXIT(runWith(core::SystemKind::GoPim, "ddi", ctx, {}),
                ::testing::ExitedWithCode(1),
                "no stream for this run");
}

TEST(ReplayDeath, InvalidStreamIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto stream = isa::StreamBuilder("broken")
                      .microBatches(2)
                      .stage(10.0)
                      .build();
    stream.commands.pop_back();
    EXPECT_EXIT(sim::ReplayEngine().replayStream(stream,
                                                 sim::SimContext{}),
                ::testing::ExitedWithCode(1),
                "invalid command stream");
}

TEST(ReplayDeath, SemanticallyBrokenTraceIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Record a real run, then strip every SYNC terminator: the
    // loaded trace decodes fine but fails flow verification, and
    // trace-mode replay must refuse it before any timing happens.
    sim::SimContext record;
    record.engine = sim::EngineKind::EventDriven;
    record.isaRecorder = std::make_shared<isa::StreamRecorder>();
    runWith(core::SystemKind::GoPim, "ddi", record, {});
    isa::TraceBundle bundle = record.isaRecorder->bundle();
    ASSERT_FALSE(bundle.streams.empty());
    for (auto &stream : bundle.streams)
        stream.commands.pop_back();

    sim::SimContext replayCtx;
    replayCtx.engine = sim::EngineKind::Replay;
    replayCtx.engineOverride =
        std::make_shared<sim::ReplayEngine>(std::move(bundle));
    EXPECT_EXIT(runWith(core::SystemKind::GoPim, "ddi", replayCtx, {}),
                ::testing::ExitedWithCode(1),
                "fails semantic verification");
}

TEST(Replay, GridRecorderBundleIsIdenticalForAnyJobs)
{
    // The --jobs determinism guarantee extends to recorded traces:
    // any worker count must drain to the same trace bytes.
    auto runGridWithJobs = [](size_t jobs) {
        sim::SimContext ctx;
        ctx.engine = sim::EngineKind::EventDriven;
        ctx.isaRecorder = std::make_shared<isa::StreamRecorder>();
        core::ComparisonHarness harness(
            reram::AcceleratorConfig::paperDefault(), ctx);
        harness.runGrid(core::figure13Systems(), {"ddi"}, jobs);
        return isa::encodeBundle(ctx.isaRecorder->bundle());
    };
    const std::string serial = runGridWithJobs(1);
    const std::string parallel = runGridWithJobs(4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------
// Engine registry + flag/serve integration (satellite fix)
// ---------------------------------------------------------------

TEST(Registry, AllEnginesRoundTripThroughNames)
{
    for (const sim::EngineInfo &info : sim::engineRegistry()) {
        EXPECT_EQ(sim::engineKindFromString(info.alias), info.kind);
        EXPECT_EQ(sim::engineKindFromString(info.canonical),
                  info.kind);
        EXPECT_EQ(sim::toString(info.kind), info.canonical);
        // The registry instance reports the canonical name.
        EXPECT_EQ(sim::engineFor(info.kind).name(), info.canonical);
    }
    sim::EngineKind kind;
    EXPECT_FALSE(sim::tryEngineKindFromString("warp-drive", &kind));
}

TEST(Registry, NameListAndFlagHelpCoverEveryEngine)
{
    const std::string list = sim::engineNameList();
    const std::string help = sim::engineFlagHelp();
    for (const sim::EngineInfo &info : sim::engineRegistry()) {
        EXPECT_NE(list.find(info.alias), std::string::npos) << list;
        EXPECT_NE(help.find(info.alias), std::string::npos) << help;
    }
    EXPECT_EQ(list, "closed, event, replay");
}

TEST(Registry, CanonicalRunConfigFollowsTheResolvedEngine)
{
    sim::SimContext ctx;
    ctx.engine = sim::EngineKind::EventDriven;
    const std::string plain = core::simContextJson(ctx).dump();
    EXPECT_NE(plain.find("event-driven"), std::string::npos);

    // A plugged-in override is what actually times the run, so it —
    // not the kind enum — must reach the cache key.
    ctx.engineOverride =
        std::make_shared<sim::ReplayEngine>(isa::TraceBundle{});
    const std::string overridden = core::simContextJson(ctx).dump();
    EXPECT_NE(overridden.find("\"replay\""), std::string::npos);
    EXPECT_NE(plain, overridden);
}

TEST(SimFlags, IsaTraceOutAttachesARecorder)
{
    Flags flags("test", "test");
    core::addSimFlags(flags);
    const char *argv[] = {"test", "--engine=replay",
                          "--isa-trace-out=/tmp/x.trace"};
    ASSERT_TRUE(flags.parse(3, argv));
    const auto ctx = core::simContextFromFlags(flags);
    EXPECT_EQ(ctx.engine, sim::EngineKind::Replay);
    ASSERT_NE(ctx.isaRecorder, nullptr);
    EXPECT_EQ(ctx.isaRecorder->streamCount(), 0u);
}

TEST(SimFlagsDeath, IsaTraceInConflictsWithExplicitEngine)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Flags flags("test", "test");
    core::addSimFlags(flags);
    const char *argv[] = {"test", "--engine=event",
                          "--isa-trace-in=/tmp/x.trace"};
    ASSERT_TRUE(flags.parse(3, argv));
    EXPECT_EXIT(core::simContextFromFlags(flags),
                ::testing::ExitedWithCode(1),
                "implies --engine=replay");
}

TEST(Serve, RequestsAcceptReplayAndItReachesTheCacheKey)
{
    const auto hw = reram::AcceleratorConfig::paperDefault();
    auto keyFor = [&hw](const std::string &engine) {
        json::Value body;
        const std::string text = "{\"dataset\":\"ddi\",\"system\":"
                                 "\"GoPIM\",\"engine\":\"" +
                                 engine + "\"}";
        std::string parseError;
        EXPECT_TRUE(json::Value::parse(text, &body, &parseError))
            << parseError;
        serve::Request req;
        EXPECT_TRUE(
            serve::parseRequest(body, serve::Request{}, &req).ok());
        serve::ResolvedRequest resolved;
        EXPECT_TRUE(serve::resolveRequest(req, &resolved).ok());
        return serve::cacheKey(resolved, hw);
    };
    const std::string closed = keyFor("closed");
    const std::string event = keyFor("event");
    const std::string replay = keyFor("replay");
    EXPECT_NE(closed, event);
    EXPECT_NE(event, replay);
    EXPECT_NE(closed, replay);
}

TEST(Serve, UnknownEngineHintListsTheRegistry)
{
    json::Value body;
    std::string parseError;
    ASSERT_TRUE(json::Value::parse("{\"engine\":\"quantum\"}", &body,
                                   &parseError));
    serve::Request req;
    const auto err = serve::parseRequest(body, serve::Request{}, &req);
    EXPECT_EQ(err.code, "unknown_name");
    EXPECT_NE(err.message.find("closed, event, replay"),
              std::string::npos)
        << err.message;
}

} // namespace
} // namespace gopim
