/**
 * @file
 * Unit tests for the mapping module: tiling arithmetic against the
 * paper's published Table VI crossbar counts, vertex mapping
 * strategies (including the Fig. 7 OSU counter-example), and the
 * selective-update write-load computation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hh"
#include "graph/generators.hh"
#include "graph/graph.hh"
#include "mapping/selective.hh"
#include "mapping/tiling.hh"
#include "mapping/vertex_map.hh"
#include "reram/config.hh"

namespace gopim::mapping {
namespace {

using reram::AcceleratorConfig;

TEST(Tiling, ReproducesTableSixCrossbarCounts)
{
    const auto cfg = AcceleratorConfig::paperDefault();
    // ddi Combination: 256 x 256 weights -> 32 crossbars (Table VI).
    EXPECT_EQ(crossbarsPerReplica(256, 256, cfg), 32u);
    // ddi Aggregation: 4267 x 256 features -> 534 crossbars.
    EXPECT_EQ(crossbarsPerReplica(4267, 256, cfg), 534u);
}

TEST(Tiling, FootprintGeometry)
{
    const auto cfg = AcceleratorConfig::paperDefault();
    const auto fp = tileMatrix(4267, 256, cfg);
    EXPECT_EQ(fp.rowGroups, 67u);   // ceil(4267/64)
    EXPECT_EQ(fp.colSegments, 8u);  // ceil(256*2/64)
    EXPECT_EQ(fp.crossbars, 534u);
}

TEST(Tiling, SmallMatrixStillOneCrossbar)
{
    const auto cfg = AcceleratorConfig::paperDefault();
    EXPECT_EQ(crossbarsPerReplica(1, 1, cfg), 1u);
    EXPECT_EQ(crossbarsPerReplica(64, 32, cfg), 1u); // 64*32*2 = 4096
    EXPECT_EQ(crossbarsPerReplica(64, 33, cfg), 2u);
}

TEST(Tiling, MonotoneInBothDimensions)
{
    const auto cfg = AcceleratorConfig::paperDefault();
    EXPECT_LE(crossbarsPerReplica(100, 100, cfg),
              crossbarsPerReplica(200, 100, cfg));
    EXPECT_LE(crossbarsPerReplica(100, 100, cfg),
              crossbarsPerReplica(100, 200, cfg));
}

TEST(VertexMap, IndexBasedIsContiguous)
{
    const std::vector<uint32_t> degrees(130, 1);
    const auto assignment =
        mapVertices(degrees, 64, VertexMapStrategy::IndexBased);
    EXPECT_EQ(assignment.numGroups, 3u);
    EXPECT_EQ(assignment.groupOf[0], 0u);
    EXPECT_EQ(assignment.groupOf[63], 0u);
    EXPECT_EQ(assignment.groupOf[64], 1u);
    EXPECT_EQ(assignment.groupOf[129], 2u);
}

TEST(VertexMap, InterleavedRespectsCapacity)
{
    Rng rng(3);
    const auto degrees =
        graph::powerLawDegreeSequence(1000, 20.0, 2.1, 500, rng);
    const auto assignment =
        mapVertices(degrees, 64, VertexMapStrategy::Interleaved);

    std::vector<uint32_t> counts(assignment.numGroups, 0);
    for (auto g : assignment.groupOf)
        ++counts[g];
    for (auto c : counts)
        EXPECT_LE(c, 64u);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 1000u);
}

TEST(VertexMap, InterleavedBalancesDegrees)
{
    Rng rng(5);
    const auto degrees =
        graph::powerLawDegreeSequence(6400, 50.0, 2.1, 3000, rng);

    const auto indexMap =
        mapVertices(degrees, 64, VertexMapStrategy::IndexBased);
    const auto interleaved =
        mapVertices(degrees, 64, VertexMapStrategy::Interleaved);

    const auto skewIndex =
        minMax(perGroupAvgDegree(indexMap, degrees)).skew();
    const auto skewInter =
        minMax(perGroupAvgDegree(interleaved, degrees)).skew();

    // Interleaving must shrink the per-crossbar degree skew (Fig. 6
    // motivates; Section VI-B resolves).
    EXPECT_LT(skewInter, skewIndex * 0.5);
    EXPECT_LT(skewInter, 3.0);
}

TEST(VertexMap, StrategyNames)
{
    EXPECT_EQ(toString(VertexMapStrategy::IndexBased), "index-based");
    EXPECT_EQ(toString(VertexMapStrategy::Interleaved), "interleaved");
}

TEST(Selective, AdaptiveThetaRule)
{
    // Section VI-C: sparse (avg degree <= 8) -> 0.8; dense -> 0.5.
    EXPECT_DOUBLE_EQ(adaptiveTheta(3.9), 0.8);   // Cora
    EXPECT_DOUBLE_EQ(adaptiveTheta(8.0), 0.8);   // boundary
    EXPECT_DOUBLE_EQ(adaptiveTheta(8.2), 0.5);   // collab
    EXPECT_DOUBLE_EQ(adaptiveTheta(500.5), 0.5); // ddi
}

TEST(Selective, SelectsTopFractionByDegree)
{
    const std::vector<uint32_t> degrees = {300, 500, 250, 450,
                                           2,   15,  10,  1};
    const auto important = selectImportant(degrees, 0.5);
    // The Fig. 7 example: V1-V4 (degrees 300/500/250/450) selected.
    EXPECT_TRUE(important[0]);
    EXPECT_TRUE(important[1]);
    EXPECT_TRUE(important[2]);
    EXPECT_TRUE(important[3]);
    EXPECT_FALSE(important[4]);
    EXPECT_FALSE(important[5]);
    EXPECT_FALSE(important[6]);
    EXPECT_FALSE(important[7]);
}

TEST(Selective, ThetaExtremes)
{
    const std::vector<uint32_t> degrees = {5, 3, 1};
    const auto none = selectImportant(degrees, 0.0);
    const auto all = selectImportant(degrees, 1.0);
    EXPECT_EQ(std::count(none.begin(), none.end(), true), 0);
    EXPECT_EQ(std::count(all.begin(), all.end(), true), 3);
}

/** The comparison-sort selection selectImportant must reproduce. */
std::vector<bool>
legacySelectImportant(const std::vector<uint32_t> &degrees, double theta)
{
    const size_t n = degrees.size();
    const auto keep = static_cast<size_t>(
        static_cast<double>(n) * theta + 0.5);
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&degrees](uint32_t a, uint32_t b) {
                         return degrees[a] > degrees[b];
                     });
    std::vector<bool> important(n, false);
    for (size_t i = 0; i < std::min(keep, n); ++i)
        important[order[i]] = true;
    return important;
}

TEST(Selective, RoundingEdgesMatchComparisonSort)
{
    // n = 8 with ties: theta * 8 + 0.5 lands exactly on 1 at
    // theta = 1/16 (keep 1), just below it (keep 0), on a half at
    // 5/16 (keep 3), and at n near theta = 1 (keep all, no ranking).
    const std::vector<uint32_t> degrees = {4, 9, 4, 1, 9, 4, 0, 9};
    for (const double theta : {0.0, 0.0624, 0.0625, 0.3125, 0.5,
                               0.9375, 0.95, 1.0}) {
        EXPECT_EQ(selectImportant(degrees, theta),
                  legacySelectImportant(degrees, theta))
            << "theta " << theta;
    }
    EXPECT_EQ(importantCount(8, 0.0624), 0u);
    EXPECT_EQ(importantCount(8, 0.0625), 1u);
    EXPECT_EQ(importantCount(8, 0.3125), 3u);
    EXPECT_EQ(importantCount(8, 1.0), 8u);
    EXPECT_TRUE(selectImportant({}, 0.5).empty());
}

TEST(Selective, RankedVariantsMatchDegreeEntryPoints)
{
    Rng rng(5);
    const auto degrees =
        graph::powerLawDegreeSequence(1000, 12.0, 2.1, 400, rng);
    const auto order = graph::orderByDegreeDesc(degrees);
    const auto viaDegrees =
        mapVertices(degrees, 64, VertexMapStrategy::Interleaved);
    const auto viaRank = interleaveRanked(order, 64);
    EXPECT_EQ(viaRank.groupOf, viaDegrees.groupOf);
    EXPECT_EQ(viaRank.numGroups, viaDegrees.numGroups);
    EXPECT_EQ(selectImportantRanked(order, importantCount(1000, 0.5)),
              selectImportant(degrees, 0.5));
}

TEST(Selective, Figure7OsuCounterExample)
{
    // Eight vertices, two crossbars of four rows each, theta = 0.5.
    // Index mapping puts all four selected vertices on crossbar 1:
    // the update still takes 4 cycles (no improvement over full).
    const std::vector<uint32_t> degrees = {300, 500, 250, 450,
                                           2,   15,  10,  1};
    const auto important = selectImportant(degrees, 0.5);

    const auto osu = mapVertices(degrees, 4,
                                 VertexMapStrategy::IndexBased);
    const auto osuWrites = hotEpochWrites(osu, important);
    EXPECT_EQ(*std::max_element(osuWrites.begin(), osuWrites.end()),
              4u);

    // ISU deals the importance-ranked vertices round-robin: two
    // selected vertices per crossbar -> 2 cycles (Fig. 12).
    const auto isu = mapVertices(degrees, 4,
                                 VertexMapStrategy::Interleaved);
    const auto isuWrites = hotEpochWrites(isu, important);
    EXPECT_EQ(*std::max_element(isuWrites.begin(), isuWrites.end()),
              2u);
}

TEST(Selective, ExpectedWritesIncludeColdRefresh)
{
    const std::vector<uint32_t> degrees = {10, 1};
    const auto assignment =
        mapVertices(degrees, 1, VertexMapStrategy::IndexBased);
    const auto important = selectImportant(degrees, 0.5);
    const SelectiveUpdateParams params{.theta = 0.5, .coldPeriod = 20};
    const auto writes =
        expectedEpochWrites(assignment, important, params);
    ASSERT_EQ(writes.size(), 2u);
    EXPECT_DOUBLE_EQ(writes[0], 1.0);        // hot vertex
    EXPECT_DOUBLE_EQ(writes[1], 1.0 / 20.0); // cold vertex
}

TEST(Selective, EpochUpdateSlotsIsMaxGroupLoad)
{
    Rng rng(7);
    const auto degrees =
        graph::powerLawDegreeSequence(640, 30.0, 2.1, 300, rng);
    const auto important = selectImportant(degrees, 0.5);
    const SelectiveUpdateParams params{.theta = 0.5, .coldPeriod = 20};

    const auto index =
        mapVertices(degrees, 64, VertexMapStrategy::IndexBased);
    const auto inter =
        mapVertices(degrees, 64, VertexMapStrategy::Interleaved);

    const double slotsIndex = epochUpdateSlots(index, important, params);
    const double slotsInter = epochUpdateSlots(inter, important, params);

    // ISU's whole point: the bound drops toward the balanced load
    // 64 * (theta + (1-theta)/20) = 35.2.
    EXPECT_LT(slotsInter, slotsIndex);
    EXPECT_NEAR(slotsInter, 64 * (0.5 + 0.5 / 20.0), 3.0);
}

TEST(Selective, DroppedDegreeMassSmallUnderDegreeRanking)
{
    Rng rng(9);
    const auto degrees =
        graph::powerLawDegreeSequence(2000, 20.0, 2.1, 1000, rng);
    const auto important = selectImportant(degrees, 0.5);
    const uint64_t dropped = droppedDegreeMass(degrees, important);
    uint64_t total = 0;
    for (auto d : degrees)
        total += d;
    // Dropping the *low-degree* half must drop well under half the
    // degree mass (that is why accuracy survives).
    EXPECT_LT(dropped, total / 4);
}

} // namespace
} // namespace gopim::mapping
