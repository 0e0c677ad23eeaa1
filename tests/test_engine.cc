/**
 * @file
 * Tests for the pluggable scheduling-engine layer: closed-form vs
 * event-driven parity across every Fig. 13 system on multiple
 * catalog datasets, the event-only knobs (bounded buffers, retry
 * stochasticity, replicas-as-servers), custom engine plug-in via
 * SimContext::engineOverride, and the Chrome trace sink.
 */

#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <limits>
#include <sstream>

#include "common/memo_table.hh"
#include "core/accelerator.hh"
#include "core/harness.hh"
#include "core/options.hh"
#include "core/systems.hh"
#include "gcn/workload.hh"
#include "isa/isa.hh"
#include "sim/engine.hh"
#include "sim/trace.hh"

namespace gopim {
namespace {

core::RunResult
runWith(core::SystemKind kind, const std::string &dataset,
        const sim::SimContext &ctx)
{
    core::ComparisonHarness harness(
        reram::AcceleratorConfig::paperDefault(), ctx);
    return harness.runOne(kind, gcn::Workload::paperDefault(dataset));
}

// With default knobs (one server per stage, unbounded buffers,
// deterministic times) the event-driven engine must reproduce the
// closed form exactly — for every pipelining regime the Fig. 13
// systems exercise (Serial, IntraBatch, IntraInterBatch).
TEST(EngineParity, Figure13SystemsAgreeOnMakespanAndIdle)
{
    for (const std::string dataset : {"ddi", "Cora"}) {
        for (core::SystemKind kind : core::figure13Systems()) {
            sim::SimContext closed;
            closed.engine = sim::EngineKind::ClosedForm;
            sim::SimContext event;
            event.engine = sim::EngineKind::EventDriven;

            const auto a = runWith(kind, dataset, closed);
            const auto b = runWith(kind, dataset, event);

            EXPECT_EQ(a.engineName, "closed-form");
            EXPECT_EQ(b.engineName, "event-driven");
            EXPECT_NEAR(a.makespanNs, b.makespanNs,
                        1e-9 * a.makespanNs)
                << toString(kind) << " on " << dataset;
            ASSERT_EQ(a.idleFraction.size(), b.idleFraction.size());
            for (size_t i = 0; i < a.idleFraction.size(); ++i)
                EXPECT_NEAR(a.idleFraction[i], b.idleFraction[i],
                            1e-9)
                    << toString(kind) << " on " << dataset
                    << " stage " << i;
            // Identical timing means identical energy (up to
            // summation order: the serial regime accumulates chunk
            // makespans in a different order than the closed form).
            EXPECT_NEAR(a.energyPj, b.energyPj, 1e-9 * a.energyPj)
                << toString(kind) << " on " << dataset;
            EXPECT_GT(b.eventsProcessed, 0u);
            EXPECT_EQ(a.eventsProcessed, 0u);
        }
    }
}

TEST(EngineParity, AblationSystemsAgreeToo)
{
    for (core::SystemKind kind :
         {core::SystemKind::PlusPP, core::SystemKind::PlusISU,
          core::SystemKind::Naive}) {
        sim::SimContext event;
        event.engine = sim::EngineKind::EventDriven;
        const auto a = runWith(kind, "ddi", {});
        const auto b = runWith(kind, "ddi", event);
        EXPECT_NEAR(a.makespanNs, b.makespanNs, 1e-9 * a.makespanNs)
            << toString(kind);
    }
}

TEST(EventKnobs, BoundedBuffersNeverBeatUnbounded)
{
    sim::SimContext event;
    event.engine = sim::EngineKind::EventDriven;
    const auto unbounded =
        runWith(core::SystemKind::GoPim, "ddi", event);

    event.event.inputBufferSlots = 0;
    const auto bounded =
        runWith(core::SystemKind::GoPim, "ddi", event);
    EXPECT_GE(bounded.makespanNs,
              unbounded.makespanNs * (1.0 - 1e-9));
}

TEST(EventKnobs, WriteRetriesInflateAndAreSeedDeterministic)
{
    sim::SimContext event;
    event.engine = sim::EngineKind::EventDriven;
    event.seed = 42;
    const auto clean = runWith(core::SystemKind::GoPim, "ddi", event);

    event.event.writeRetryProb = 0.3;
    event.event.writeFraction = 0.5;
    const auto noisy = runWith(core::SystemKind::GoPim, "ddi", event);
    const auto again = runWith(core::SystemKind::GoPim, "ddi", event);
    EXPECT_GT(noisy.makespanNs, clean.makespanNs);
    EXPECT_DOUBLE_EQ(noisy.makespanNs, again.makespanNs);

    event.seed = 43;
    const auto other = runWith(core::SystemKind::GoPim, "ddi", event);
    EXPECT_NE(other.makespanNs, noisy.makespanNs);
}

TEST(EventKnobs, ReplicasAsServersRuns)
{
    // Alternative replication semantics: replica groups serve
    // distinct micro-batches instead of splitting one. A different
    // timing model, but still a valid deterministic end-to-end run,
    // and never faster than every stage running at its ideal
    // zero-latency split rate would allow (serial lower bound of the
    // slowest stage).
    sim::SimContext event;
    event.engine = sim::EngineKind::EventDriven;
    event.event.replicasAsServers = true;
    const auto servers =
        runWith(core::SystemKind::GoPim, "ddi", event);
    const auto again =
        runWith(core::SystemKind::GoPim, "ddi", event);
    EXPECT_GT(servers.makespanNs, 0.0);
    EXPECT_DOUBLE_EQ(servers.makespanNs, again.makespanNs);
}

TEST(TimelineMemo, HitsAreBitIdenticalAcrossSeeds)
{
    // With no write-retry sampling the event timeline is
    // seed-independent, so the memo may answer — and a hit must be
    // the exact timeline a fresh simulation would produce.
    auto cache = std::make_shared<sim::TimelineMemo>();
    sim::SimContext event;
    event.engine = sim::EngineKind::EventDriven;
    event.timelineCache = cache;
    event.seed = 1;
    const auto cold = runWith(core::SystemKind::GoPim, "ddi", event);
    EXPECT_GT(cache->size(), 0u);

    event.seed = 2;
    const auto warm = runWith(core::SystemKind::GoPim, "ddi", event);
    EXPECT_GT(cache->hits(), 0u);

    sim::SimContext plain = event;
    plain.timelineCache = nullptr;
    const auto fresh = runWith(core::SystemKind::GoPim, "ddi", plain);

    EXPECT_EQ(warm.makespanNs, cold.makespanNs);
    EXPECT_EQ(warm.makespanNs, fresh.makespanNs);
    EXPECT_EQ(warm.energyPj, fresh.energyPj);
    EXPECT_EQ(warm.eventsProcessed, fresh.eventsProcessed);
    EXPECT_EQ(warm.idleFraction, fresh.idleFraction);
    EXPECT_EQ(warm.blockedNs, fresh.blockedNs);
}

TEST(TimelineMemo, SeedDependentRunsBypassTheCache)
{
    // writeRetryProb > 0 makes the timeline a function of the seed;
    // the memo must refuse to serve (or record) those runs, so two
    // seeds still diverge with a cache installed.
    auto cache = std::make_shared<sim::TimelineMemo>();
    sim::SimContext event;
    event.engine = sim::EngineKind::EventDriven;
    event.timelineCache = cache;
    event.event.writeRetryProb = 0.3;
    event.event.writeFraction = 0.5;

    event.seed = 42;
    const auto a = runWith(core::SystemKind::GoPim, "ddi", event);
    event.seed = 43;
    const auto b = runWith(core::SystemKind::GoPim, "ddi", event);
    EXPECT_NE(a.makespanNs, b.makespanNs);
    EXPECT_EQ(cache->size(), 0u);
}

// Exact output bits of the event path over its whole knob matrix:
// regime x servers (replicas as servers) x input buffer x sampler.
// The golden rows were produced by the calendar-queue engine that
// preceded the event heap, so any change to the simulator core that
// alters the event order, the RNG draw order or the floating-point
// summation order fails here, not just a relational check.
struct EventPathBits
{
    uint64_t makespan;
    uint64_t busy[3];
    uint64_t blocked[3];
    uint64_t events;
    uint64_t maxDepth;
};

struct EventPathCase
{
    pipeline::Regime regime;
    uint32_t servers;
    uint32_t inputBuffer;
    int sampler; ///< 0 none, 1 retry, 2 retry + refresh stall
};

std::vector<EventPathCase>
eventPathMatrix()
{
    std::vector<EventPathCase> cases;
    for (const pipeline::Regime regime :
         {pipeline::Regime::Serial, pipeline::Regime::IntraBatch,
          pipeline::Regime::IntraInterBatch})
        for (const uint32_t servers : {1u, 3u, 16u})
            for (const uint32_t buffer :
                 {0u, 1u, std::numeric_limits<uint32_t>::max()})
                for (const int sampler : {0, 1, 2})
                    cases.push_back({regime, servers, buffer, sampler});
    return cases;
}

EventPathBits
runEventPathCase(const EventPathCase &c)
{
    sim::ScheduleRequest request;
    request.stageTimesNs = {1000.3, 2500.7, 1700.1};
    request.replicas.assign(3, c.servers);
    request.regime = c.regime;
    request.totalMicroBatches = 24;
    request.microBatchesPerBatch = 8;

    sim::SimContext ctx;
    ctx.engine = sim::EngineKind::EventDriven;
    ctx.seed = 11;
    ctx.event.replicasAsServers = true;
    ctx.event.inputBufferSlots = c.inputBuffer;
    if (c.sampler >= 1) {
        ctx.event.writeRetryProb = 0.05;
        ctx.event.writeFraction = 0.3;
    }
    if (c.sampler == 2) {
        ctx.event.refreshEveryMicroBatches = 5;
        ctx.event.refreshStallNs = 777.7;
    }
    const sim::StageTimeline t = sim::scheduleEventPath(
        sim::descFromRequest(request, ctx), ctx, "event_driven");

    EventPathBits bits{};
    bits.makespan = std::bit_cast<uint64_t>(t.makespanNs);
    for (size_t i = 0; i < 3; ++i) {
        bits.busy[i] = std::bit_cast<uint64_t>(t.busyNs[i]);
        bits.blocked[i] = std::bit_cast<uint64_t>(t.blockedNs[i]);
    }
    bits.events = t.eventsProcessed;
    bits.maxDepth = t.maxEventQueueDepth;
    return bits;
}

/** The golden-table row for `bits`, as source text. */
std::string
formatRow(const EventPathBits &bits)
{
    std::ostringstream out;
    out << std::hex << std::showbase << "{" << bits.makespan << ",\n {"
        << bits.busy[0] << ", " << bits.busy[1] << ", " << bits.busy[2]
        << "},\n {" << bits.blocked[0] << ", " << bits.blocked[1]
        << ", " << bits.blocked[2] << "},\n " << std::dec
        << bits.events << ", " << bits.maxDepth << "},";
    return out.str();
}

std::string
caseName(const EventPathCase &c)
{
    static const char *const kRegimes[] = {"Serial", "IntraBatch",
                                           "IntraInterBatch"};
    static const char *const kSamplers[] = {"none", "retry",
                                            "retry+refresh"};
    std::ostringstream out;
    out << kRegimes[static_cast<int>(c.regime)] << ", " << c.servers
        << (c.servers == 1 ? " server" : " servers") << ", buffer ";
    if (c.inputBuffer == std::numeric_limits<uint32_t>::max())
        out << "unbounded";
    else
        out << c.inputBuffer;
    out << ", " << kSamplers[c.sampler];
    return out.str();
}

/** One row per eventPathMatrix() case, in matrix order. */
const EventPathBits kEventPathGolden[] = {
    // Serial, 1 server, buffer 0, none
    {0x40fe79a66666666a,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 1},
    // Serial, 1 server, buffer 0, retry
    {0x40ff2630f5c28f5f,
     {0x40d771ccccccccca, 0x40ee676dc28f5c26, 0x40e42c0dc28f5c26},
     {0, 0, 0},
     72, 1},
    // Serial, 1 server, buffer 0, retry+refresh
    {0x4100b6bbae147ae2,
     {0x40da7b7ffffffffe, 0x40efec475c28f5bf, 0x40e5b0e75c28f5c1},
     {0, 0, 0},
     72, 1},
    // Serial, 1 server, buffer 1, none
    {0x40fe79a66666666a,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 1},
    // Serial, 1 server, buffer 1, retry
    {0x40ff2630f5c28f5f,
     {0x40d771ccccccccca, 0x40ee676dc28f5c26, 0x40e42c0dc28f5c26},
     {0, 0, 0},
     72, 1},
    // Serial, 1 server, buffer 1, retry+refresh
    {0x4100b6bbae147ae2,
     {0x40da7b7ffffffffe, 0x40efec475c28f5bf, 0x40e5b0e75c28f5c1},
     {0, 0, 0},
     72, 1},
    // Serial, 1 server, buffer unbounded, none
    {0x40fe79a66666666a,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 1},
    // Serial, 1 server, buffer unbounded, retry
    {0x40ff2630f5c28f5f,
     {0x40d771ccccccccca, 0x40ee676dc28f5c26, 0x40e42c0dc28f5c26},
     {0, 0, 0},
     72, 1},
    // Serial, 1 server, buffer unbounded, retry+refresh
    {0x4100b6bbae147ae2,
     {0x40da7b7ffffffffe, 0x40efec475c28f5bf, 0x40e5b0e75c28f5c1},
     {0, 0, 0},
     72, 1},
    // Serial, 3 servers, buffer 0, none
    {0x40fe79a66666666a,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 1},
    // Serial, 3 servers, buffer 0, retry
    {0x40ff2630f5c28f5f,
     {0x40d771ccccccccca, 0x40ee676dc28f5c26, 0x40e42c0dc28f5c26},
     {0, 0, 0},
     72, 1},
    // Serial, 3 servers, buffer 0, retry+refresh
    {0x4100b6bbae147ae2,
     {0x40da7b7ffffffffe, 0x40efec475c28f5bf, 0x40e5b0e75c28f5c1},
     {0, 0, 0},
     72, 1},
    // Serial, 3 servers, buffer 1, none
    {0x40fe79a66666666a,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 1},
    // Serial, 3 servers, buffer 1, retry
    {0x40ff2630f5c28f5f,
     {0x40d771ccccccccca, 0x40ee676dc28f5c26, 0x40e42c0dc28f5c26},
     {0, 0, 0},
     72, 1},
    // Serial, 3 servers, buffer 1, retry+refresh
    {0x4100b6bbae147ae2,
     {0x40da7b7ffffffffe, 0x40efec475c28f5bf, 0x40e5b0e75c28f5c1},
     {0, 0, 0},
     72, 1},
    // Serial, 3 servers, buffer unbounded, none
    {0x40fe79a66666666a,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 1},
    // Serial, 3 servers, buffer unbounded, retry
    {0x40ff2630f5c28f5f,
     {0x40d771ccccccccca, 0x40ee676dc28f5c26, 0x40e42c0dc28f5c26},
     {0, 0, 0},
     72, 1},
    // Serial, 3 servers, buffer unbounded, retry+refresh
    {0x4100b6bbae147ae2,
     {0x40da7b7ffffffffe, 0x40efec475c28f5bf, 0x40e5b0e75c28f5c1},
     {0, 0, 0},
     72, 1},
    // Serial, 16 servers, buffer 0, none
    {0x40fe79a66666666a,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 1},
    // Serial, 16 servers, buffer 0, retry
    {0x40ff2630f5c28f5f,
     {0x40d771ccccccccca, 0x40ee676dc28f5c26, 0x40e42c0dc28f5c26},
     {0, 0, 0},
     72, 1},
    // Serial, 16 servers, buffer 0, retry+refresh
    {0x4100b6bbae147ae2,
     {0x40da7b7ffffffffe, 0x40efec475c28f5bf, 0x40e5b0e75c28f5c1},
     {0, 0, 0},
     72, 1},
    // Serial, 16 servers, buffer 1, none
    {0x40fe79a66666666a,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 1},
    // Serial, 16 servers, buffer 1, retry
    {0x40ff2630f5c28f5f,
     {0x40d771ccccccccca, 0x40ee676dc28f5c26, 0x40e42c0dc28f5c26},
     {0, 0, 0},
     72, 1},
    // Serial, 16 servers, buffer 1, retry+refresh
    {0x4100b6bbae147ae2,
     {0x40da7b7ffffffffe, 0x40efec475c28f5bf, 0x40e5b0e75c28f5c1},
     {0, 0, 0},
     72, 1},
    // Serial, 16 servers, buffer unbounded, none
    {0x40fe79a66666666a,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 1},
    // Serial, 16 servers, buffer unbounded, retry
    {0x40ff2630f5c28f5f,
     {0x40d771ccccccccca, 0x40ee676dc28f5c26, 0x40e42c0dc28f5c26},
     {0, 0, 0},
     72, 1},
    // Serial, 16 servers, buffer unbounded, retry+refresh
    {0x4100b6bbae147ae2,
     {0x40da7b7ffffffffe, 0x40efec475c28f5bf, 0x40e5b0e75c28f5c1},
     {0, 0, 0},
     72, 1},
    // IntraBatch, 1 server, buffer 0, none
    {0x40f0a16000000000,
     {0x40d771cccccccccd, 0x40ed4e199999999a, 0x40e3ec4ccccccccd},
     {0x40dec5199999999c, 0, 0},
     72, 3},
    // IntraBatch, 1 server, buffer 0, retry
    {0x40f12e0a147ae148,
     {0x40d771cccccccccd, 0x40ee676dc28f5c2a, 0x40e46bceb851eb85},
     {0x40e07be0f5c28f5e, 0, 0},
     72, 3},
    // IntraBatch, 1 server, buffer 0, retry+refresh
    {0x40f20ee8f5c28f5c,
     {0x40da7b8000000000, 0x40efec475c28f5c3, 0x40e5f0a851eb851f},
     {0x40e0b8c51eb851ec, 0x407e72147ae147c0, 0},
     72, 3},
    // IntraBatch, 1 server, buffer 1, none
    {0x40f0a16000000000,
     {0x40d771cccccccccd, 0x40ed4e199999999a, 0x40e3ec4ccccccccd},
     {0x40d7719333333335, 0, 0},
     72, 3},
    // IntraBatch, 1 server, buffer 1, retry
    {0x40f0ff26b851eb86,
     {0x40d7bcd28f5c28f6, 0x40ee09a70a3d70a4, 0x40e46bceb851eb86},
     {0x40d89da851eb8522, 0, 0},
     72, 3},
    // IntraBatch, 1 server, buffer 1, retry+refresh
    {0x40f1c193851eb852,
     {0x40dac685c28f5c28, 0x40ef8e80a3d70a3e, 0x40e5f0a851eb851f},
     {0x40d7db3b851eb852, 0, 0},
     72, 3},
    // IntraBatch, 1 server, buffer unbounded, none
    {0x40f0a16000000000,
     {0x40d771cccccccccd, 0x40ed4e199999999a, 0x40e3ec4ccccccccd},
     {0, 0, 0},
     72, 3},
    // IntraBatch, 1 server, buffer unbounded, retry
    {0x40f0ff26b851eb86,
     {0x40d7bcd28f5c28f6, 0x40ee09a70a3d70a4, 0x40e46bceb851eb85},
     {0, 0, 0},
     72, 3},
    // IntraBatch, 1 server, buffer unbounded, retry+refresh
    {0x40f1c193851eb852,
     {0x40dac685c28f5c2a, 0x40ef8e80a3d70a3e, 0x40e5f0a851eb851f},
     {0, 0, 0},
     72, 3},
    // IntraBatch, 3 servers, buffer 0, none
    {0x40dde3e000000000,
     {0x40d771cccccccccd, 0x40ed4e199999999a, 0x40e3ec4ccccccccd},
     {0x40d5fa8000000000, 0, 0},
     72, 8},
    // IntraBatch, 3 servers, buffer 0, retry
    {0x40dde3e000000000,
     {0x40d852de147ae148, 0x40ed4e199999999a, 0x40e46bceb851eb86},
     {0x40d5af7a3d70a3d7, 0, 0},
     72, 8},
    // IntraBatch, 3 servers, buffer 0, retry+refresh
    {0x40e0159333333333,
     {0x40db5c9147ae147a, 0x40eed2f333333334, 0x40e5f0a851eb851f},
     {0x40d4174147ae147a, 0, 0},
     72, 8},
    // IntraBatch, 3 servers, buffer 1, none
    {0x40dde3e000000000,
     {0x40d771cccccccccd, 0x40ed4e199999999a, 0x40e3ec4ccccccccd},
     {0x40cd4df333333334, 0, 0},
     72, 7},
    // IntraBatch, 3 servers, buffer 1, retry
    {0x40dde3e000000000,
     {0x40d852de147ae148, 0x40ed4e199999999a, 0x40e46bceb851eb86},
     {0x40ccb7e7ae147ae2, 0, 0},
     72, 7},
    // IntraBatch, 3 servers, buffer 1, retry+refresh
    {0x40e076c999999999,
     {0x40db5c9147ae147a, 0x40eed2f333333332, 0x40e5f0a851eb8520},
     {0x40c8029c28f5c28f, 0, 0},
     72, 7},
    // IntraBatch, 3 servers, buffer unbounded, none
    {0x40dde3e000000000,
     {0x40d771cccccccccd, 0x40ed4e199999999a, 0x40e3ec4ccccccccd},
     {0, 0, 0},
     72, 6},
    // IntraBatch, 3 servers, buffer unbounded, retry
    {0x40dde3e000000000,
     {0x40d852de147ae148, 0x40ed4e199999999a, 0x40e46bceb851eb86},
     {0, 0, 0},
     72, 6},
    // IntraBatch, 3 servers, buffer unbounded, retry+refresh
    {0x40e0d80000000000,
     {0x40db5c9147ae147a, 0x40eed2f333333334, 0x40e5f0a851eb8520},
     {0, 0, 0},
     72, 6},
    // IntraBatch, 16 servers, buffer 0, none
    {0x40ce79a666666667,
     {0x40d771cccccccccd, 0x40ed4e199999999a, 0x40e3ec4ccccccccd},
     {0, 0, 0},
     72, 8},
    // IntraBatch, 16 servers, buffer 0, retry
    {0x40d0c2e851eb851f,
     {0x40d852de147ae148, 0x40edabe051eb8520, 0x40e42c0dc28f5c2a},
     {0, 0, 0},
     72, 8},
    // IntraBatch, 16 servers, buffer 0, retry+refresh
    {0x40d719399999999a,
     {0x40db5c9147ae147a, 0x40ef30b9eb851eb9, 0x40e5b0e75c28f5c3},
     {0, 0, 0},
     72, 8},
    // IntraBatch, 16 servers, buffer 1, none
    {0x40ce79a666666667,
     {0x40d771cccccccccd, 0x40ed4e199999999a, 0x40e3ec4ccccccccd},
     {0, 0, 0},
     72, 8},
    // IntraBatch, 16 servers, buffer 1, retry
    {0x40d0c2e851eb851f,
     {0x40d852de147ae148, 0x40edabe051eb8520, 0x40e42c0dc28f5c2a},
     {0, 0, 0},
     72, 8},
    // IntraBatch, 16 servers, buffer 1, retry+refresh
    {0x40d719399999999a,
     {0x40db5c9147ae147a, 0x40ef30b9eb851eb9, 0x40e5b0e75c28f5c3},
     {0, 0, 0},
     72, 8},
    // IntraBatch, 16 servers, buffer unbounded, none
    {0x40ce79a666666667,
     {0x40d771cccccccccd, 0x40ed4e199999999a, 0x40e3ec4ccccccccd},
     {0, 0, 0},
     72, 8},
    // IntraBatch, 16 servers, buffer unbounded, retry
    {0x40d0c2e851eb851f,
     {0x40d852de147ae148, 0x40edabe051eb8520, 0x40e42c0dc28f5c2a},
     {0, 0, 0},
     72, 8},
    // IntraBatch, 16 servers, buffer unbounded, retry+refresh
    {0x40d719399999999a,
     {0x40db5c9147ae147a, 0x40ef30b9eb851eb9, 0x40e5b0e75c28f5c3},
     {0, 0, 0},
     72, 8},
    // IntraInterBatch, 1 server, buffer 0, none
    {0x40ee9fa666666662,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0x40e0d9a666666660, 0, 0},
     72, 3},
    // IntraInterBatch, 1 server, buffer 0, retry
    {0x40eefd6d1eb851e7,
     {0x40d771ccccccccca, 0x40edabe051eb851c, 0x40e4ab8fae147adf},
     {0x40e1376d1eb851e4, 0, 0},
     72, 3},
    // IntraInterBatch, 1 server, buffer 0, retry+refresh
    {0x40f07e07851eb851,
     {0x40da7b7ffffffffe, 0x40ef30b9eb851eb5, 0x40e6306947ae1479},
     {0x40e1b13570a3d704, 0x408e72147ae147c0, 0},
     72, 3},
    // IntraInterBatch, 1 server, buffer 1, none
    {0x40ee9fa666666662,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0x40df421ffffffff4, 0, 0},
     72, 3},
    // IntraInterBatch, 1 server, buffer 1, retry
    {0x40ee9fa666666662,
     {0x40d852de147ae145, 0x40ed4e1999999996, 0x40e42c0dc28f5c26},
     {0x40de610eb851eb79, 0, 0},
     72, 3},
    // IntraInterBatch, 1 server, buffer 1, retry+refresh
    {0x40f0123ffffffffe,
     {0x40db5c9147ae1478, 0x40eed2f333333330, 0x40e5b0e75c28f5c1},
     {0x40de610eb851eb79, 0, 0},
     72, 3},
    // IntraInterBatch, 1 server, buffer unbounded, none
    {0x40ee9fa666666662,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 3},
    // IntraInterBatch, 1 server, buffer unbounded, retry
    {0x40ef5b33d70a3d6d,
     {0x40d807d851eb851c, 0x40ee09a70a3d70a0, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 3},
    // IntraInterBatch, 1 server, buffer unbounded, retry+refresh
    {0x40f07006b851eb84,
     {0x40dac685c28f5c26, 0x40ef8e80a3d70a3b, 0x40e5b0e75c28f5c1},
     {0, 0, 0},
     72, 3},
    // IntraInterBatch, 3 servers, buffer 0, none
    {0x40d62c8000000000,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0x40dec5199999999c, 0, 0},
     72, 9},
    // IntraInterBatch, 3 servers, buffer 0, retry
    {0x40d6e80d70a3d70a,
     {0x40d771ccccccccca, 0x40edabe051eb851c, 0x40e4ab8fae147adf},
     {0x40df80a70a3d70a6, 0, 0},
     72, 9},
    // IntraInterBatch, 3 servers, buffer 0, retry+refresh
    {0x40d873c666666665,
     {0x40da7b7ffffffffe, 0x40ef30b9eb851eb5, 0x40e6306947ae1479},
     {0x40df80a70a3d70a5, 0, 0},
     72, 9},
    // IntraInterBatch, 3 servers, buffer 1, none
    {0x40d62c8000000000,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0x40dc53ecccccccd0, 0, 0},
     72, 9},
    // IntraInterBatch, 3 servers, buffer 1, retry
    {0x40d62c8000000000,
     {0x40d852de147ae145, 0x40ed4e1999999996, 0x40e42c0dc28f5c27},
     {0x40db72db851eb855, 0, 0},
     72, 9},
    // IntraInterBatch, 3 servers, buffer 1, retry+refresh
    {0x40d7b15999999999,
     {0x40db5c9147ae1479, 0x40eed2f333333330, 0x40e5b0e75c28f5c1},
     {0x40dab06eb851eb87, 0, 0},
     72, 9},
    // IntraInterBatch, 3 servers, buffer unbounded, none
    {0x40d62c8000000000,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 9},
    // IntraInterBatch, 3 servers, buffer unbounded, retry
    {0x40d6e80d70a3d70b,
     {0x40d771ccccccccca, 0x40ee09a70a3d70a0, 0x40e46bceb851eb83},
     {0, 0, 0},
     72, 9},
    // IntraInterBatch, 3 servers, buffer unbounded, retry+refresh
    {0x40d86ce70a3d70a3,
     {0x40da7b7ffffffffe, 0x40efec475c28f5bf, 0x40e5b0e75c28f5c0},
     {0, 0, 0},
     72, 9},
    // IntraInterBatch, 16 servers, buffer 0, none
    {0x40be15cccccccccc,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0x40c7719999999999, 0, 0},
     72, 24},
    // IntraInterBatch, 16 servers, buffer 0, retry
    {0x40be15cccccccccc,
     {0x40d7bcd28f5c28f3, 0x40ee09a70a3d70a0, 0x40e42c0dc28f5c27},
     {0x40c7719999999999, 0, 0},
     72, 24},
    // IntraInterBatch, 16 servers, buffer 0, retry+refresh
    {0x40c214999999999a,
     {0x40dac685c28f5c27, 0x40ef8e80a3d70a3c, 0x40e5b0e75c28f5c1},
     {0x40c5ecc000000000, 0, 0},
     72, 24},
    // IntraInterBatch, 16 servers, buffer 1, none
    {0x40be15cccccccccc,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0x40c4836666666666, 0, 0},
     72, 24},
    // IntraInterBatch, 16 servers, buffer 1, retry
    {0x40be15cccccccccc,
     {0x40d7bcd28f5c28f3, 0x40ee09a70a3d70a0, 0x40e42c0dc28f5c27},
     {0x40c4836666666666, 0, 0},
     72, 24},
    // IntraInterBatch, 16 servers, buffer 1, retry+refresh
    {0x40c214999999999a,
     {0x40dac685c28f5c27, 0x40ef8e80a3d70a3c, 0x40e5b0e75c28f5c1},
     {0x40c2fe8ccccccccc, 0, 0},
     72, 24},
    // IntraInterBatch, 16 servers, buffer unbounded, none
    {0x40be15cccccccccc,
     {0x40d771ccccccccca, 0x40ed4e1999999996, 0x40e3ec4cccccccca},
     {0, 0, 0},
     72, 24},
    // IntraInterBatch, 16 servers, buffer unbounded, retry
    {0x40be15cccccccccc,
     {0x40d7bcd28f5c28f3, 0x40ee09a70a3d70a0, 0x40e42c0dc28f5c27},
     {0, 0, 0},
     72, 24},
    // IntraInterBatch, 16 servers, buffer unbounded, retry+refresh
    {0x40c214999999999a,
     {0x40dac685c28f5c27, 0x40ef8e80a3d70a3c, 0x40e5b0e75c28f5c1},
     {0, 0, 0},
     72, 24},
};

TEST(EventPathGolden, OutputBitsMatchTable)
{
    const auto cases = eventPathMatrix();
    ASSERT_EQ(cases.size(), std::size(kEventPathGolden));
    for (size_t i = 0; i < cases.size(); ++i)
        EXPECT_EQ(formatRow(runEventPathCase(cases[i])),
                  formatRow(kEventPathGolden[i]))
            << caseName(cases[i]);
}

TEST(EventPath, TimesTheDescAloneUnderAnyContext)
{
    // Stage times, replicas, regime, chunking, seed and every event
    // knob come from the desc. Two contexts that disagree with it,
    // and with each other, on the seed and on every event knob must
    // time it to the same bits.
    const isa::ScheduleDesc desc =
        isa::StreamBuilder("knobs")
            .regime(pipeline::Regime::IntraBatch)
            .microBatches(24, 8)
            .seed(11)
            .bufferSlots(1)
            .replicasAsServers(true)
            .writeRetry(0.05, 0.3)
            .refresh(5, 777.7)
            .stage(1000.3, 3)
            .stage(2500.7, 3)
            .stage(1700.1, 3)
            .desc();
    sim::SimContext plain;
    sim::SimContext other;
    other.seed = 99;
    other.event.inputBufferSlots = 7;
    other.event.replicasAsServers = false;
    other.event.writeRetryProb = 0.4;
    other.event.writeFraction = 0.9;
    other.event.refreshEveryMicroBatches = 2;
    other.event.refreshStallNs = 5.0;

    const sim::StageTimeline a =
        sim::scheduleEventPath(desc, plain, "event_driven");
    const sim::StageTimeline b =
        sim::scheduleEventPath(desc, other, "event_driven");
    EXPECT_EQ(std::bit_cast<uint64_t>(a.makespanNs),
              std::bit_cast<uint64_t>(b.makespanNs));
    EXPECT_EQ(a.busyNs, b.busyNs);
    EXPECT_EQ(a.blockedNs, b.blockedNs);
    EXPECT_EQ(a.idleFraction, b.idleFraction);
    EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
    EXPECT_EQ(a.maxEventQueueDepth, b.maxEventQueueDepth);
    EXPECT_GT(a.eventsProcessed, 0u);
}

TEST(EventPathDeath, InvalidDescDiesWithTheValidatorsMessage)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const isa::ScheduleDesc noStages;
    EXPECT_EXIT(
        sim::scheduleEventPath(noStages, sim::SimContext{}, "event"),
        ::testing::ExitedWithCode(1), "desc has no stages");

    isa::ScheduleDesc certainRetry;
    certainRetry.stageTimesNs = {10.0, 20.0};
    certainRetry.writeRetryProb = 1.0;
    EXPECT_EXIT(
        sim::scheduleEventPath(certainRetry, sim::SimContext{}, "event"),
        ::testing::ExitedWithCode(1), "writeRetryProb must lie in");
}

// A caller-supplied backend plugs in through the same seam the two
// built-ins use.
class FixedMakespanEngine final : public sim::ScheduleEngine
{
  public:
    std::string name() const override { return "fixed-stub"; }

    sim::StageTimeline
    schedule(const sim::ScheduleRequest &request,
             const sim::SimContext &) const override
    {
        sim::StageTimeline timeline;
        timeline.makespanNs = 1234.5;
        const size_t n = request.stageTimesNs.size();
        timeline.busyNs.assign(n, 0.0);
        timeline.blockedNs.assign(n, 0.0);
        timeline.idleFraction.assign(n, 0.5);
        return timeline;
    }
};

TEST(EnginePlugin, EngineOverrideWinsOverKind)
{
    sim::SimContext ctx;
    ctx.engine = sim::EngineKind::EventDriven;
    ctx.engineOverride = std::make_shared<FixedMakespanEngine>();
    const auto run = runWith(core::SystemKind::GoPim, "ddi", ctx);
    EXPECT_EQ(run.engineName, "fixed-stub");
    EXPECT_DOUBLE_EQ(run.makespanNs, 1234.5);
    EXPECT_DOUBLE_EQ(run.avgIdleFraction, 0.5);
}

TEST(TraceSink, CollectsRunsAndWritesBalancedJson)
{
    auto sink = std::make_shared<sim::ChromeTraceSink>();
    sim::SimContext ctx;
    ctx.engine = sim::EngineKind::EventDriven;
    ctx.traceSink = sink;
    runWith(core::SystemKind::GoPim, "Cora", ctx);
    runWith(core::SystemKind::Serial, "Cora", ctx);
    EXPECT_EQ(sink->runCount(), 2u);

    std::ostringstream os;
    sink->writeTo(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("GoPIM on Cora"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(TraceSink, ClosedFormWindowsTraceToo)
{
    auto sink = std::make_shared<sim::ChromeTraceSink>();
    sim::SimContext ctx;
    ctx.traceSink = sink;
    runWith(core::SystemKind::GoPim, "Cora", ctx);
    EXPECT_EQ(sink->runCount(), 1u);
}

TEST(SimFlags, UniformFlagsBuildTheContext)
{
    Flags flags("test", "test");
    core::addSimFlags(flags);
    const char *argv[] = {"test", "--engine=event", "--seed=7",
                          "--jobs=3", "--buffer-slots=2",
                          "--retry-prob=0.1"};
    ASSERT_TRUE(flags.parse(6, argv));
    const auto ctx = core::simContextFromFlags(flags);
    EXPECT_EQ(ctx.engine, sim::EngineKind::EventDriven);
    EXPECT_EQ(ctx.seed, 7u);
    EXPECT_EQ(ctx.event.inputBufferSlots, 2u);
    EXPECT_DOUBLE_EQ(ctx.event.writeRetryProb, 0.1);
    EXPECT_EQ(core::jobsFromFlags(flags), 3u);
    EXPECT_EQ(ctx.traceSink, nullptr);
}

TEST(SimFlags, EngineNamesRoundTrip)
{
    EXPECT_EQ(sim::engineKindFromString("closed"),
              sim::EngineKind::ClosedForm);
    EXPECT_EQ(sim::engineKindFromString("event-driven"),
              sim::EngineKind::EventDriven);
    EXPECT_EQ(toString(sim::EngineKind::ClosedForm), "closed-form");
    EXPECT_EQ(toString(sim::EngineKind::EventDriven), "event-driven");
}

} // namespace
} // namespace gopim
