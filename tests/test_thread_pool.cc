/**
 * @file
 * Tests for the worker thread pool: results come back in submission
 * order, exceptions propagate through futures, parallelFor covers
 * every index exactly once — and the property the harness builds on:
 * runGrid over a thread pool is bit-identical to the serial path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/thread_pool.hh"
#include "core/harness.hh"
#include "core/report.hh"
#include "core/systems.hh"

namespace gopim {
namespace {

TEST(ThreadPool, ResultsArriveInSubmissionOrder)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
}

TEST(ThreadPool, AllTasksRunExactlyOnce)
{
    ThreadPool pool(8);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 500; ++i)
        futures.push_back(pool.submit([&counter] { ++counter; }));
    for (auto &future : futures)
        future.get();
    EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1u);
    EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);
}

TEST(ThreadPool, ResolveJobsZeroMeansAllCores)
{
    EXPECT_GE(ThreadPool::resolveJobs(0), 1u);
    EXPECT_EQ(ThreadPool::resolveJobs(5), 5u);
}

TEST(ParallelFor, CoversEveryIndexOnce)
{
    std::vector<int> hits(257, 0);
    parallelFor(hits.size(), 8,
                [&](size_t i) { hits[i] += 1; });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, InlineWhenSingleJob)
{
    const auto caller = std::this_thread::get_id();
    parallelFor(4, 1, [&](size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(parallelFor(16, 4,
                             [](size_t i) {
                                 if (i == 9)
                                     throw std::runtime_error("nine");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, RethrowsTheLowestFailingIndexFirst)
{
    // The exception contract parallel runs share with serial ones:
    // when several indices throw, the surviving exception is the
    // first by index, and every index is still attempted.
    std::atomic<int> attempts{0};
    try {
        parallelFor(64, 8, [&](size_t i) {
            ++attempts;
            if (i == 5 || i == 60)
                throw std::runtime_error(std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "5");
    }
    EXPECT_EQ(attempts.load(), 64);
}

TEST(ParallelFor, RunsOnTheSharedProcessPool)
{
    // parallelFor no longer spins up a pool per call: work lands on
    // the process-wide pool, whose lifetime task counter advances.
    ThreadPool &pool = processPool();
    const size_t threads = pool.threadCount();
    EXPECT_EQ(threads, ThreadPool::resolveJobs(0));

    const uint64_t before = pool.tasksSubmitted();
    parallelFor(32, 4, [](size_t) {});
    EXPECT_GT(pool.tasksSubmitted(), before);
    EXPECT_EQ(pool.threadCount(), threads);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock)
{
    // A chunk running on the shared pool must not wait on the pool
    // for its own nested parallelFor; nesting runs inline instead.
    std::atomic<int> inner{0};
    parallelFor(4, 4, [&](size_t) {
        parallelFor(8, 4, [&](size_t) { ++inner; });
    });
    EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, TracksUtilizationCounters)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.tasksSubmitted(), 0u);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 20; ++i)
        futures.push_back(pool.submit([] {}));
    for (auto &future : futures)
        future.get();
    EXPECT_EQ(pool.tasksSubmitted(), 20u);
    EXPECT_EQ(pool.tasksCompleted(), 20u);
    EXPECT_LE(pool.maxQueueDepth(), 20u);
}

// The load-bearing property: a parallel grid is indistinguishable
// from the serial one, bit for bit, down to the rendered tables.
TEST(ParallelGrid, JobsOneEqualsJobsManyBitForBit)
{
    core::ComparisonHarness harness;
    const auto systems = core::figure13Systems();
    const std::vector<std::string> datasets = {"ddi", "Cora"};

    const auto serial = harness.runGrid(systems, datasets, 1);
    const auto parallel = harness.runGrid(systems, datasets, 8);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t d = 0; d < serial.size(); ++d) {
        EXPECT_EQ(serial[d].datasetName, parallel[d].datasetName);
        ASSERT_EQ(serial[d].results.size(),
                  parallel[d].results.size());
        for (size_t s = 0; s < serial[d].results.size(); ++s) {
            const auto &a = serial[d].results[s];
            const auto &b = parallel[d].results[s];
            EXPECT_EQ(a.systemName, b.systemName);
            // Bitwise, not approximate: the cells are stateless.
            EXPECT_EQ(a.makespanNs, b.makespanNs);
            EXPECT_EQ(a.energyPj, b.energyPj);
            EXPECT_EQ(a.replicas, b.replicas);
            EXPECT_EQ(a.idleFraction, b.idleFraction);
        }
    }

    // Rendered artifacts are byte-identical too.
    std::ostringstream csvSerial, csvParallel;
    core::writeGridCsv(serial, csvSerial);
    core::writeGridCsv(parallel, csvParallel);
    EXPECT_EQ(csvSerial.str(), csvParallel.str());
}

// Same property under the event-driven engine, whose queue is full
// of colliding timestamps (every stage of a drained chunk finishes
// on the same boundary): sim::EventQueue's heap pops plain events in
// (timeNs, seq) order, seq being the insertion index, and that
// explicit tie-break is what keeps --jobs=1 and --jobs=8
// bit-identical here, rather than unspecified heap layout.
TEST(ParallelGrid, EventEngineCollidingTimestampsJobsInvariant)
{
    sim::SimContext ctx;
    ctx.engine = sim::EngineKind::EventDriven;
    ctx.seed = 7;
    core::ComparisonHarness harness(
        reram::AcceleratorConfig::paperDefault(), ctx);
    const auto systems = core::figure13Systems();
    const std::vector<std::string> datasets = {"ddi", "Cora"};

    const auto serial = harness.runGrid(systems, datasets, 1);
    const auto parallel = harness.runGrid(systems, datasets, 8);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t d = 0; d < serial.size(); ++d) {
        ASSERT_EQ(serial[d].results.size(),
                  parallel[d].results.size());
        for (size_t s = 0; s < serial[d].results.size(); ++s) {
            const auto &a = serial[d].results[s];
            const auto &b = parallel[d].results[s];
            EXPECT_EQ(a.makespanNs, b.makespanNs);
            EXPECT_EQ(a.energyPj, b.energyPj);
            EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
            EXPECT_GT(a.eventsProcessed, 0u);
            EXPECT_EQ(a.idleFraction, b.idleFraction);
            EXPECT_EQ(a.blockedNs, b.blockedNs);
        }
    }
}

} // namespace
} // namespace gopim
