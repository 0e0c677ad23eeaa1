/**
 * @file
 * Unit tests for the discrete-event simulator: the event queue's
 * ordering guarantees, and the pipeline simulation's exact agreement
 * with the closed-form Eq. 6 schedule in the baseline configuration,
 * plus the behaviors only the event-driven model can express
 * (bounded buffers, multi-server stages, stochastic service).
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hh"
#include "pipeline/schedule.hh"
#include "sim/event_queue.hh"
#include "sim/pipeline_sim.hh"

namespace gopim::sim {
namespace {

/** Drain the queue, returning each event's micro-batch field. */
std::vector<uint32_t>
drain(EventQueue &queue)
{
    std::vector<uint32_t> order;
    while (!queue.empty())
        order.push_back(queue.pop().microBatch);
    return order;
}

TEST(EventQueue, TimeOrderedExecution)
{
    EventQueue queue;
    queue.schedule(3.0, 0, 3);
    queue.schedule(1.0, 0, 1);
    queue.schedule(2.0, 0, 2);
    EXPECT_EQ(drain(queue), (std::vector<uint32_t>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(queue.nowNs(), 3.0);
    EXPECT_EQ(queue.processed(), 3u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue queue;
    queue.schedule(1.0, 2, 0);
    queue.schedule(1.0, 1, 1);
    queue.schedule(1.0, 0, 2);
    EXPECT_EQ(drain(queue), (std::vector<uint32_t>{0, 1, 2}));
}

TEST(EventQueue, CollidingTimestampsDrainFifoAtScale)
{
    // Many events per timestamp, scheduled in shuffled timestamp
    // order: equal timestamps must drain in exact insertion order
    // (the explicit sequence-number tie-break), not in whatever
    // order the heap happens to keep them.
    EventQueue queue;
    const double times[] = {2.0, 0.5, 3.5, 1.0};
    for (uint32_t k = 0; k < 64; ++k)
        for (uint32_t t = 0; t < 4; ++t)
            queue.schedule(times[t], t, k * 4 + t);
    EXPECT_EQ(queue.pending(), 256u);

    std::vector<uint32_t> expected;
    for (uint32_t t : {1, 3, 0, 2}) // timestamps ascending: .5, 1, 2, 3.5
        for (uint32_t k = 0; k < 64; ++k)
            expected.push_back(k * 4 + t);
    EXPECT_EQ(drain(queue), expected);
}

TEST(EventQueue, PushesDuringDrainKeepTheOrder)
{
    // Events scheduled while draining interleave with the pending
    // ones by (time, insertion order), including ties with them.
    EventQueue queue;
    queue.schedule(1.0, 0, 0);
    queue.schedule(2.0, 0, 1);
    std::vector<uint32_t> order;
    while (!queue.empty()) {
        const Event event = queue.pop();
        EXPECT_EQ(event.stage, 0u);
        order.push_back(event.microBatch);
        if (event.microBatch == 0) {
            queue.scheduleAfter(1.0, 0, 2); // ties with 1, pushed later
            queue.scheduleAfter(0.5, 0, 3);
        }
    }
    EXPECT_EQ(order, (std::vector<uint32_t>{0, 3, 1, 2}));
    EXPECT_DOUBLE_EQ(queue.nowNs(), 2.0);

    // clear() rewinds time and the counters for reuse.
    queue.clear();
    EXPECT_EQ(queue.nowNs(), 0.0);
    EXPECT_EQ(queue.processed(), 0u);
    queue.schedule(0.5, 1, 9);
    EXPECT_EQ(drain(queue), (std::vector<uint32_t>{9}));
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue queue;
    queue.schedule(5.0, 0, 0);
    queue.pop();
    EXPECT_DEATH(queue.schedule(1.0, 0, 1), "past");
}

TEST(EventQueueDeath, RunawayGuardTrips)
{
    EventQueue queue(100);
    queue.schedule(0.0, 0, 0);
    const auto loop = [&] {
        while (!queue.empty()) {
            queue.pop();
            queue.scheduleAfter(1.0, 0, 0);
        }
    };
    EXPECT_DEATH(loop(), "runaway");
}

// ---------------------------------------------------------------- //

std::vector<StationConfig>
stationsFromTimes(const std::vector<double> &times)
{
    std::vector<StationConfig> stations;
    for (double t : times)
        stations.push_back({.serviceTimeNs = t});
    return stations;
}

TEST(PipelineSim, MatchesClosedFormExactly)
{
    // Single-server, unbounded buffers, deterministic times: the
    // event-driven makespan must equal Eq. 6 for arbitrary times.
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t stages = 2 + rng.uniformInt(uint64_t{10});
        const uint32_t b =
            1 + static_cast<uint32_t>(rng.uniformInt(uint64_t{50}));
        std::vector<double> times(stages);
        for (auto &t : times)
            t = rng.uniform(0.5, 50.0);

        const auto sim =
            simulatePipeline(stationsFromTimes(times), b);
        EXPECT_EQ(sim.completed, b);
        EXPECT_NEAR(sim.makespanNs,
                    pipeline::pipelinedMakespanNs(times, b),
                    1e-6 * sim.makespanNs)
            << "trial " << trial;
    }
}

TEST(PipelineSim, BusyTimesMatchSchedule)
{
    const std::vector<double> times = {2.0, 7.0, 3.0};
    const uint32_t b = 12;
    const auto sim = simulatePipeline(stationsFromTimes(times), b);
    const auto closed = pipeline::schedulePipelined(times, b);
    for (size_t i = 0; i < times.size(); ++i) {
        EXPECT_NEAR(sim.busyNs[i], closed.busyNs[i], 1e-9);
        EXPECT_NEAR(sim.idleFraction(i), closed.idleFraction[i],
                    1e-9);
    }
}

TEST(PipelineSim, SingleMicroBatchIsStageSum)
{
    const std::vector<double> times = {1.0, 2.0, 3.0};
    const auto sim = simulatePipeline(stationsFromTimes(times), 1);
    EXPECT_DOUBLE_EQ(sim.makespanNs, 6.0);
}

TEST(PipelineSim, ZeroBufferAddsBackpressure)
{
    // A slow final stage with no buffering blocks the fast stages.
    std::vector<StationConfig> stations = {
        {.serviceTimeNs = 1.0},
        {.serviceTimeNs = 1.0},
        {.serviceTimeNs = 10.0},
    };
    const auto unbounded = simulatePipeline(stations, 20);

    for (auto &s : stations)
        s.inputBuffer = 0;
    const auto bounded = simulatePipeline(stations, 20);

    EXPECT_GE(bounded.makespanNs, unbounded.makespanNs - 1e-9);
    // Upstream stages spend time blocked.
    EXPECT_GT(bounded.blockedNs[1], 0.0);
    // The bottleneck still pins the lower bound.
    EXPECT_GE(bounded.makespanNs, 10.0 * 20);
}

TEST(PipelineSim, BufferOneApproachesUnbounded)
{
    std::vector<StationConfig> stations = {
        {.serviceTimeNs = 5.0},
        {.serviceTimeNs = 4.0},
        {.serviceTimeNs = 3.0},
    };
    // Decreasing service times downstream: even tiny buffers never
    // block, so all capacities agree.
    const auto unbounded = simulatePipeline(stations, 30);
    for (auto &s : stations)
        s.inputBuffer = 1;
    const auto small = simulatePipeline(stations, 30);
    EXPECT_NEAR(small.makespanNs, unbounded.makespanNs, 1e-9);
}

TEST(PipelineSim, MultiServerBeatsSingleServer)
{
    // Doubling the bottleneck's servers halves its effective rate
    // (something replica *splitting* models as time/2; here the two
    // replica groups serve distinct micro-batches).
    std::vector<StationConfig> stations = {
        {.serviceTimeNs = 1.0},
        {.serviceTimeNs = 8.0},
        {.serviceTimeNs = 1.0},
    };
    const auto single = simulatePipeline(stations, 40);
    stations[1].servers = 2;
    const auto dual = simulatePipeline(stations, 40);
    EXPECT_LT(dual.makespanNs, single.makespanNs * 0.6);
    // Asymptotic rate: one finish per 4 time units.
    EXPECT_GE(dual.makespanNs, 8.0 * 40 / 2);
}

TEST(PipelineSim, ManyServersCollapseToMaxStage)
{
    std::vector<StationConfig> stations = {
        {.serviceTimeNs = 2.0, .servers = 64},
        {.serviceTimeNs = 5.0, .servers = 64},
    };
    const auto sim = simulatePipeline(stations, 64);
    // Everything runs concurrently: makespan = sum of stage times.
    EXPECT_DOUBLE_EQ(sim.makespanNs, 7.0);
}

TEST(PipelineSim, StochasticServiceRaisesExpectedMakespan)
{
    const std::vector<double> times = {3.0, 3.0, 3.0};
    const auto stations = stationsFromTimes(times);
    const uint32_t b = 64;
    const double deterministic =
        simulatePipeline(stations, b).makespanNs;

    // Zero-mean jitter around the same mean service time: pipeline
    // makespan is a max-plus composition, so E[makespan] >= the
    // deterministic makespan (Jensen).
    ServiceSampler jitter = [&](size_t stage, uint32_t, Rng &rng) {
        (void)stage;
        return 3.0 + rng.uniform(-1.5, 1.5);
    };
    double total = 0.0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t)
        total += simulatePipeline(stations, b, jitter,
                                  static_cast<uint64_t>(t) + 1)
                     .makespanNs;
    EXPECT_GT(total / trials, deterministic);
}

TEST(PipelineSim, WriteRetrySamplerInflatesWithProbability)
{
    const std::vector<double> times = {4.0, 4.0};
    const auto stations = stationsFromTimes(times);
    const uint32_t b = 128;

    const double clean = simulatePipeline(stations, b).makespanNs;
    const auto retry10 = makeWriteRetrySampler(stations, 0.10, 0.5);
    const auto retry30 = makeWriteRetrySampler(stations, 0.30, 0.5);
    const double m10 =
        simulatePipeline(stations, b, retry10, 7).makespanNs;
    const double m30 =
        simulatePipeline(stations, b, retry30, 7).makespanNs;
    EXPECT_GT(m10, clean);
    EXPECT_GT(m30, m10);
    // Expected inflation of the write half: 1/(1-p) retries.
    EXPECT_NEAR(m30 / clean, 0.5 + 0.5 / 0.7, 0.15);
}

TEST(PipelineSim, DeterministicForSameSeed)
{
    const auto stations = stationsFromTimes({2.0, 5.0});
    const auto sampler = makeWriteRetrySampler(stations, 0.2, 0.4);
    const auto a = simulatePipeline(stations, 50, sampler, 9);
    const auto b = simulatePipeline(stations, 50, sampler, 9);
    EXPECT_DOUBLE_EQ(a.makespanNs, b.makespanNs);
}

TEST(PipelineSim, ReusedSimulatorMatchesFreshRuns)
{
    // One simulator run many times (as the event engine runs every
    // chunk of a schedule) must reproduce one-off runs bit for bit,
    // whatever ran before it; mbBase only shifts the sampler's index.
    std::vector<StationConfig> stations = {
        {.serviceTimeNs = 3.0, .servers = 2, .inputBuffer = 1},
        {.serviceTimeNs = 7.5},
        {.serviceTimeNs = 2.25, .inputBuffer = 0},
    };
    const auto retry = makeWriteRetrySampler(stations, 0.3, 0.5);
    std::vector<uint32_t> seen;
    const ServiceSampler recording = [&](size_t stage, uint32_t mb,
                                         Rng &rng) {
        seen.push_back(mb);
        return retry(stage, mb, rng);
    };
    PipelineSimulator reused(stations, true);
    for (const uint32_t b : {40u, 3u, 17u, 1u}) {
        for (const uint64_t seed : {5u, 6u}) {
            seen.clear();
            const SimResult &a = reused.run(b, recording, 100, seed);
            const std::vector<uint32_t> reusedSeen = seen;
            seen.clear();
            const ServiceSampler shifted =
                [&](size_t stage, uint32_t mb, Rng &rng) {
                    return recording(stage, mb + 100, rng);
                };
            const SimResult fresh =
                simulatePipeline(stations, b, shifted, seed, true);
            EXPECT_EQ(seen, reusedSeen);
            EXPECT_EQ(a.makespanNs, fresh.makespanNs);
            EXPECT_EQ(a.busyNs, fresh.busyNs);
            EXPECT_EQ(a.blockedNs, fresh.blockedNs);
            EXPECT_EQ(a.completed, b);
            EXPECT_EQ(a.eventsProcessed, fresh.eventsProcessed);
            EXPECT_EQ(a.maxEventQueueDepth, fresh.maxEventQueueDepth);
            ASSERT_EQ(a.windows.size(), fresh.windows.size());
            for (size_t i = 0; i < a.windows.size(); ++i) {
                ASSERT_EQ(a.windows[i].size(), b);
                for (uint32_t j = 0; j < b; ++j) {
                    EXPECT_EQ(a.windows[i][j].startNs,
                              fresh.windows[i][j].startNs);
                    EXPECT_EQ(a.windows[i][j].endNs,
                              fresh.windows[i][j].endNs);
                }
            }
        }
    }
}

} // namespace
} // namespace gopim::sim
