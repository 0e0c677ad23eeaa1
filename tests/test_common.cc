/**
 * @file
 * Unit tests for the common infrastructure: RNG determinism and
 * distribution sanity, streaming statistics, histograms, tables,
 * math helpers, and the MemoTable memo primitive.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "common/memo_table.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace gopim {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanConverges)
{
    Rng rng(9);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(3);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = rng.uniformInt(uint64_t{7});
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, UniformIntRangeInclusive)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(int64_t{-3}, int64_t{3});
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, NormalMomentsConverge)
{
    Rng rng(11);
    const int n = 100000;
    double sum = 0.0, sumSq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sumSq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumSq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(13);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, DiscreteFollowsWeights)
{
    Rng rng(17);
    std::vector<double> weights = {1.0, 3.0};
    int ones = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ones += rng.discrete(weights) == 1;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(19);
    std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    auto original = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, original);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(23);
    Rng child = a.fork();
    EXPECT_NE(a.next(), child.next());
}

TEST(Accumulator, BasicMoments)
{
    Accumulator acc;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 4u);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 4.0);
    EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MergeMatchesCombinedStream)
{
    Accumulator a, b, combined;
    Rng rng(29);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(5.0, 2.0);
        (i % 2 ? a : b).add(x);
        combined.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
}

TEST(Histogram, CountsAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.5);
    h.add(-100.0); // clamps into the first bucket
    h.add(100.0);  // clamps into the last bucket
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(9), 2u);
}

TEST(Histogram, ExactBucketEdgesLandDeterministically)
{
    // A sample exactly equal to a bucket's lower edge must land in
    // that bucket — x in [bucketLo(i), bucketLo(i+1)) — for every
    // edge, including edges like 0.3 that binary floating point
    // cannot represent exactly. The naive (x - lo) / width division
    // can round either side of the integer; add() settles the index
    // against the canonical edges instead.
    const double lo = 0.0;
    const double hi = 1.0;
    const size_t buckets = 10;
    Histogram h(lo, hi, buckets);
    for (size_t i = 0; i < buckets; ++i)
        h.add(h.bucketLo(i));
    EXPECT_EQ(h.total(), buckets);
    for (size_t i = 0; i < buckets; ++i)
        EXPECT_EQ(h.bucketCount(i), 1u) << "edge of bucket " << i;

    // Awkward width (1/3) and non-zero origin: same invariant.
    Histogram odd(2.0, 3.0, 3);
    for (size_t i = 0; i < odd.buckets(); ++i)
        odd.add(odd.bucketLo(i));
    for (size_t i = 0; i < odd.buckets(); ++i)
        EXPECT_EQ(odd.bucketCount(i), 1u) << "edge of bucket " << i;

    // Values a hair below an edge belong to the bucket below it.
    Histogram below(0.0, 1.0, 10);
    below.add(std::nextafter(below.bucketLo(5), 0.0));
    EXPECT_EQ(below.bucketCount(4), 1u);
    // The upper bound of the whole range clamps into the last bucket.
    below.add(1.0);
    EXPECT_EQ(below.bucketCount(below.buckets() - 1), 1u);
}

TEST(Histogram, QuantileMonotone)
{
    Histogram h(0.0, 100.0, 50);
    Rng rng(31);
    for (int i = 0; i < 10000; ++i)
        h.add(rng.uniform(0.0, 100.0));
    EXPECT_LE(h.quantile(0.25), h.quantile(0.5));
    EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
    EXPECT_NEAR(h.quantile(0.5), 50.0, 5.0);
}

TEST(Percentile, ExactOnSmallSamples)
{
    std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(MathUtils, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 5), 0u);
    EXPECT_EQ(ceilDiv(1, 5), 1u);
    EXPECT_EQ(ceilDiv(5, 5), 1u);
    EXPECT_EQ(ceilDiv(6, 5), 2u);
    EXPECT_EQ(ceilDiv(4267, 64), 67u);
}

TEST(MathUtils, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({10.0, 1000.0}), 100.0, 1e-9);
}

TEST(MathUtils, ExpectedDistinctBuckets)
{
    // No draws -> no buckets hit; many draws -> all buckets hit.
    EXPECT_DOUBLE_EQ(expectedDistinctBuckets(0.0, 100.0), 0.0);
    EXPECT_NEAR(expectedDistinctBuckets(1e6, 100.0), 100.0, 1e-6);
    // One draw hits exactly one bucket.
    EXPECT_NEAR(expectedDistinctBuckets(1.0, 100.0), 1.0, 1e-9);
    // Monotone in draws.
    EXPECT_LT(expectedDistinctBuckets(10.0, 100.0),
              expectedDistinctBuckets(20.0, 100.0));
}

TEST(Table, RendersAllCells)
{
    Table t("demo", {"a", "b"});
    t.row().cell("x").cell(1.5, 1);
    t.row().cell("y").cell(uint64_t{7});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials)
{
    Table t("", {"name", "value"});
    t.row().cell("has,comma").cell("has\"quote");
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
    EXPECT_NE(os.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(Format, HumanReadableUnits)
{
    EXPECT_EQ(formatTimeNs(12.0), "12.00 ns");
    EXPECT_EQ(formatTimeNs(1.5e6), "1.50 ms");
    EXPECT_EQ(formatEnergyPj(2.5e6), "2.50 uJ");
    EXPECT_EQ(formatRatio(3.25, 2), "3.25x");
}

// ---------------------------------------------------------------
// MemoTable
// ---------------------------------------------------------------

TEST(MemoTable, CountsHitsMissesAndEntries)
{
    MemoTable<int> memo;
    EXPECT_EQ(memo.lookup(1, "a"), nullptr);
    EXPECT_EQ(*memo.insert(1, "a", 10), 10);
    EXPECT_EQ(*memo.lookup(1, "a"), 10);
    EXPECT_EQ(*memo.lookup(1, "a"), 10);
    EXPECT_EQ(memo.lookup(1, "b"), nullptr);
    const auto stats = memo.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(memo.capacity(), 0u);
}

TEST(MemoTable, UnboundedTableNeverEvicts)
{
    MemoTable<int> memo;
    for (int i = 0; i < 100; ++i)
        memo.insert(static_cast<uint64_t>(i), std::to_string(i), i);
    EXPECT_EQ(memo.size(), 100u);
    EXPECT_EQ(memo.evictions(), 0u);
    // Raw pointers are stable on an unbounded table.
    const int *first = memo.find(0, "0");
    ASSERT_NE(first, nullptr);
    memo.insert(100, "100", 100);
    EXPECT_EQ(memo.find(0, "0"), first);
}

TEST(MemoTable, CapacityOneKeepsOnlyTheNewest)
{
    MemoTable<int> memo(1);
    memo.insert(1, "a", 1);
    memo.insert(2, "b", 2);
    EXPECT_EQ(memo.size(), 1u);
    EXPECT_EQ(memo.evictions(), 1u);
    EXPECT_EQ(memo.lookup(1, "a"), nullptr);
    EXPECT_EQ(*memo.lookup(2, "b"), 2);
    memo.insert(1, "a", 1);
    EXPECT_EQ(memo.lookup(2, "b"), nullptr);
    EXPECT_EQ(memo.evictions(), 2u);
}

TEST(MemoTable, CapacityTwoEvictsLeastRecentlyUsed)
{
    MemoTable<int> memo(2);
    memo.insert(1, "a", 1);
    memo.insert(2, "b", 2);
    // A hit on "a" makes "b" the least recently used entry.
    ASSERT_NE(memo.lookup(1, "a"), nullptr);
    memo.insert(3, "c", 3);
    EXPECT_EQ(memo.evictions(), 1u);
    EXPECT_EQ(memo.lookup(2, "b"), nullptr);
    EXPECT_EQ(*memo.lookup(1, "a"), 1);
    EXPECT_EQ(*memo.lookup(3, "c"), 3);
    // "a" then "c" were touched last, so "a" goes next.
    memo.insert(4, "d", 4);
    EXPECT_EQ(memo.lookup(1, "a"), nullptr);
    EXPECT_EQ(*memo.lookup(3, "c"), 3);
    EXPECT_EQ(*memo.lookup(4, "d"), 4);
    EXPECT_EQ(memo.size(), 2u);
    EXPECT_EQ(memo.evictions(), 2u);
}

TEST(MemoTable, EvictionKeepsCollidingNeighborsApart)
{
    // Two keys share one fingerprint bucket; evicting one must leave
    // the other reachable under its own key only.
    MemoTable<int> memo(2);
    memo.insert(7, "a", 1);
    memo.insert(7, "b", 2);
    memo.insert(8, "c", 3);
    EXPECT_EQ(memo.lookup(7, "a"), nullptr);
    EXPECT_EQ(*memo.lookup(7, "b"), 2);
    EXPECT_EQ(memo.lookup(7, "c"), nullptr);
    EXPECT_EQ(*memo.lookup(8, "c"), 3);
}

TEST(MemoTable, HandleOutlivesItsEviction)
{
    MemoTable<std::vector<int>> memo(1);
    const auto held = memo.insert(1, "a", std::vector<int>(64, 7));
    memo.insert(2, "b", std::vector<int>(64, 9));
    EXPECT_EQ(memo.lookup(1, "a"), nullptr);
    // The evicted value is still alive through the handle (ASan
    // reports a use-after-free here if the table owned it alone).
    ASSERT_EQ(held->size(), 64u);
    EXPECT_EQ(held->front(), 7);
    EXPECT_EQ(held->back(), 7);
}

TEST(MemoTable, RacingInsertsReturnTheFirstEntry)
{
    MemoTable<int> memo(4);
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const int>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&, t] { got[t] = memo.insert(5, "same", t); });
    for (auto &thread : threads)
        thread.join();
    // Exactly one value won, and every racer got that same object.
    EXPECT_EQ(memo.size(), 1u);
    const auto stored = memo.lookup(5, "same");
    ASSERT_NE(stored, nullptr);
    for (const auto &handle : got)
        EXPECT_EQ(handle, stored);

    // A later insert under the key keeps the first value.
    EXPECT_EQ(memo.insert(5, "same", 99), stored);
}

TEST(MemoTableDeath, RawPointersRequireAnUnboundedTable)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    MemoTable<int> memo(2);
    memo.insert(1, "a", 1);
    EXPECT_DEATH(memo.find(1, "a"), "bounded memo");
}

} // namespace
} // namespace gopim
