/**
 * @file
 * Unit tests for the graph substrate: CSR construction (pinned to
 * the sort-based builder it replaced), generators (degree targets,
 * determinism), the Table III dataset catalog, and the degree ranking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "graph/graph.hh"

namespace gopim::graph {
namespace {

Graph
triangleWithTail()
{
    // 0-1, 1-2, 2-0 triangle plus 2-3 tail.
    return Graph::fromEdges(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
}

TEST(Graph, CsrBasics)
{
    const Graph g = triangleWithTail();
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(2), 3u);
    EXPECT_EQ(g.degree(3), 1u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0)); // symmetrized
    EXPECT_FALSE(g.hasEdge(0, 3));
}

TEST(Graph, DuplicateEdgesRemoved)
{
    const Graph g =
        Graph::fromEdges(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, SelfLoopCountedOnce)
{
    const Graph g = Graph::fromEdges(2, {{0, 0}, {0, 1}});
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.degree(0), 2u); // self loop + edge to 1
}

TEST(Graph, NeighborsSorted)
{
    const Graph g = Graph::fromEdges(5, {{2, 4}, {2, 0}, {2, 3}});
    const auto nbrs = g.neighbors(2);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_EQ(nbrs.size(), 3u);
}

TEST(Graph, AverageDegreeAndDensity)
{
    const Graph g = triangleWithTail();
    EXPECT_DOUBLE_EQ(g.averageDegree(), 2.0); // 8 directed / 4
    EXPECT_DOUBLE_EQ(g.density(), 4.0 / 6.0);
}

TEST(Graph, VerticesByDegreeDescIsStable)
{
    const Graph g = triangleWithTail();
    const auto order = g.verticesByDegreeDesc();
    EXPECT_EQ(order.front(), 2u); // degree 3
    EXPECT_EQ(order.back(), 3u);  // degree 1
    // Equal degrees (0 and 1) keep id order.
    EXPECT_LT(std::find(order.begin(), order.end(), 0u),
              std::find(order.begin(), order.end(), 1u));
}

/** A CSR's raw arrays, rebuilt from the public accessors. */
struct Csr
{
    std::vector<uint64_t> rowPtr;
    std::vector<VertexId> colIdx;
    uint64_t numEdges = 0;

    bool operator==(const Csr &) const = default;
};

Csr
csrOf(const Graph &g)
{
    Csr csr;
    csr.rowPtr.push_back(0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const auto nbrs = g.neighbors(v);
        csr.colIdx.insert(csr.colIdx.end(), nbrs.begin(), nbrs.end());
        csr.rowPtr.push_back(csr.colIdx.size());
    }
    csr.numEdges = g.numEdges();
    return csr;
}

/**
 * The CSR builder Graph::fromEdges must match bit for bit: both
 * directions of every edge in one comparison sort, then unique.
 */
Csr
sortBuilderReference(VertexId numVertices,
                     const std::vector<std::pair<VertexId, VertexId>> &edges)
{
    std::vector<std::pair<VertexId, VertexId>> directed;
    for (auto [u, v] : edges) {
        directed.emplace_back(u, v);
        if (u != v)
            directed.emplace_back(v, u);
    }
    std::sort(directed.begin(), directed.end());
    directed.erase(std::unique(directed.begin(), directed.end()),
                   directed.end());

    Csr csr;
    csr.rowPtr.assign(static_cast<size_t>(numVertices) + 1, 0);
    uint64_t selfLoops = 0;
    for (auto [u, v] : directed) {
        ++csr.rowPtr[u + 1];
        csr.colIdx.push_back(v);
        selfLoops += u == v;
    }
    std::partial_sum(csr.rowPtr.begin(), csr.rowPtr.end(),
                     csr.rowPtr.begin());
    csr.numEdges = (directed.size() - selfLoops) / 2 + selfLoops;
    return csr;
}

TEST(CsrBuild, EdgeCasesMatchSortBuilder)
{
    const std::vector<
        std::pair<VertexId, std::vector<std::pair<VertexId, VertexId>>>>
        cases = {
            {0, {}},
            {5, {}},
            {1, {}},
            {1, {{0, 0}}},
            {1, {{0, 0}, {0, 0}, {0, 0}}},
            {2, {{1, 0}, {0, 1}, {1, 0}, {1, 1}, {0, 0}}},
            {6, {{3, 1}, {1, 3}, {2, 2}}},
        };
    for (const auto &[n, edges] : cases)
        EXPECT_EQ(csrOf(Graph::fromEdges(n, edges)),
                  sortBuilderReference(n, edges))
            << n << " vertices, " << edges.size() << " edges";
}

TEST(CsrBuild, RandomEdgeListsMatchSortBuilder)
{
    // Duplicates, reversed repeats, self-loops and trailing vertices
    // no edge touches, over 300 seeded lists.
    for (uint64_t seed = 0; seed < 300; ++seed) {
        Rng rng(seed);
        const auto n = static_cast<VertexId>(1 + rng.uniformInt(200));
        const auto touched =
            static_cast<VertexId>(1 + rng.uniformInt(uint64_t{n}));
        const uint64_t m = rng.uniformInt(uint64_t{4} * n);
        std::vector<std::pair<VertexId, VertexId>> edges;
        for (uint64_t i = 0; i < m; ++i) {
            const double kind = rng.uniform();
            if (!edges.empty() && kind < 0.15) {
                edges.push_back(edges[rng.uniformInt(edges.size())]);
            } else if (!edges.empty() && kind < 0.3) {
                const auto [u, v] =
                    edges[rng.uniformInt(edges.size())];
                edges.emplace_back(v, u);
            } else {
                const auto u =
                    static_cast<VertexId>(rng.uniformInt(touched));
                const auto v =
                    kind < 0.4 ? u
                               : static_cast<VertexId>(
                                     rng.uniformInt(touched));
                edges.emplace_back(u, v);
            }
        }
        EXPECT_EQ(csrOf(Graph::fromEdges(n, edges)),
                  sortBuilderReference(n, edges))
            << "seed " << seed;
    }
}

TEST(CsrBuild, GnnInferInstancesMatchSortBuilder)
{
    // The catalog graphs at the gnn-infer profiling cap of 32768
    // vertices, sampled exactly as DatasetCatalog::materialize does.
    constexpr double kCap = 32768.0;
    for (const char *name : {"Cora", "collab", "arxiv"}) {
        const DatasetSpec &spec = DatasetCatalog::byName(name);
        const double scale =
            std::min(1.0, kCap / static_cast<double>(spec.numVertices));
        Rng rng(1);
        const auto degrees =
            DatasetCatalog::degreeSequence(spec, scale, rng);
        const auto edges = chungLuEdges(degrees, rng);
        const auto n = static_cast<VertexId>(degrees.size());
        const Csr built = csrOf(Graph::fromEdges(n, edges));
        EXPECT_EQ(built, sortBuilderReference(n, edges)) << name;

        Rng again(1);
        EXPECT_EQ(csrOf(DatasetCatalog::materialize(spec, scale, again)),
                  built)
            << name;
    }
}

/** The comparison sort orderByDegreeDesc must match bit for bit. */
std::vector<VertexId>
stableSortReference(const std::vector<uint32_t> &degrees)
{
    std::vector<VertexId> order(degrees.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&degrees](VertexId a, VertexId b) {
                         return degrees[a] > degrees[b];
                     });
    return order;
}

TEST(DegreeOrder, EmptySingleAndAllEqual)
{
    EXPECT_TRUE(orderByDegreeDesc({}).empty());
    EXPECT_EQ(orderByDegreeDesc({7}), std::vector<VertexId>{0});
    const std::vector<uint32_t> equal(100, 9);
    EXPECT_EQ(orderByDegreeDesc(equal), stableSortReference(equal));
    const std::vector<uint32_t> zeros(5, 0);
    EXPECT_EQ(orderByDegreeDesc(zeros), stableSortReference(zeros));
}

TEST(DegreeOrder, ExtremeKeysTakeBothRadixPasses)
{
    // Keys at and above 2^16 force the high-digit pass; equal low
    // digits with different high digits (and the reverse) catch a
    // pass that is unstable or ordered the wrong way.
    const std::vector<uint32_t> degrees = {
        0,          UINT32_MAX, 1u << 16,       (1u << 16) - 1,
        3,          1u << 16,   UINT32_MAX,     0,
        (2u << 16) + 3, 3,      (1u << 16) + 3, UINT32_MAX - 1,
        65535,      1u << 31,   0};
    EXPECT_EQ(orderByDegreeDesc(degrees), stableSortReference(degrees));
}

TEST(DegreeOrder, RandomKeysMatchStableSort)
{
    Rng rng(43);
    for (const uint64_t range : {uint64_t{4}, uint64_t{1} << 16,
                                 (uint64_t{1} << 16) + 1,
                                 uint64_t{1} << 32}) {
        std::vector<uint32_t> degrees(5000);
        for (auto &d : degrees)
            d = static_cast<uint32_t>(rng.uniformInt(range));
        EXPECT_EQ(orderByDegreeDesc(degrees),
                  stableSortReference(degrees))
            << "keys below " << range;
    }
}

TEST(DegreeOrder, GraphRankingMatchesStableSort)
{
    Rng rng(47);
    const Graph g = DatasetCatalog::materialize(
        DatasetCatalog::byName("Cora"), 1.0, rng);
    EXPECT_EQ(g.verticesByDegreeDesc(), stableSortReference(g.degrees()));
}

TEST(Graph, StatsMatchGraph)
{
    const Graph g = triangleWithTail();
    const GraphStats s = computeStats(g);
    EXPECT_EQ(s.numVertices, 4u);
    EXPECT_EQ(s.numEdges, 4u);
    EXPECT_DOUBLE_EQ(s.avgDegree, 2.0);
    EXPECT_DOUBLE_EQ(s.maxDegree, 3.0);
    EXPECT_NEAR(s.sparsity(), 1.0 - 8.0 / 16.0, 1e-12);
}

TEST(Generators, PowerLawSequenceHitsTargetMean)
{
    Rng rng(3);
    const auto degrees =
        powerLawDegreeSequence(50000, 40.0, 2.1, 5000, rng);
    const double avg =
        std::accumulate(degrees.begin(), degrees.end(), 0.0) /
        static_cast<double>(degrees.size());
    EXPECT_NEAR(avg, 40.0, 4.0);
    // Power law implies heavy skew: max far above the mean.
    const auto maxDeg = *std::max_element(degrees.begin(), degrees.end());
    EXPECT_GT(maxDeg, 200u);
    for (auto d : degrees)
        EXPECT_GE(d, 1u);
}

TEST(Generators, PowerLawDeterministicPerSeed)
{
    Rng a(7), b(7);
    EXPECT_EQ(powerLawDegreeSequence(100, 5.0, 2.1, 50, a),
              powerLawDegreeSequence(100, 5.0, 2.1, 50, b));
}

TEST(Generators, ChungLuApproximatesTargets)
{
    Rng rng(11);
    const auto targets = powerLawDegreeSequence(20000, 16.0, 2.1,
                                                2000, rng);
    const Graph g = chungLu(targets, rng);
    EXPECT_EQ(g.numVertices(), 20000u);
    const double targetAvg =
        std::accumulate(targets.begin(), targets.end(), 0.0) /
        static_cast<double>(targets.size());
    EXPECT_NEAR(g.averageDegree(), targetAvg, targetAvg * 0.25);
}

TEST(Generators, ErdosRenyiEdgeCount)
{
    Rng rng(13);
    const Graph g = erdosRenyi(2000, 0.01, rng);
    const double expected = 0.01 * 2000.0 * 1999.0 / 2.0;
    EXPECT_NEAR(static_cast<double>(g.numEdges()), expected,
                expected * 0.1);
}

TEST(Generators, ErdosRenyiZeroProbability)
{
    Rng rng(17);
    const Graph g = erdosRenyi(100, 0.0, rng);
    EXPECT_EQ(g.numEdges(), 0u);
}

TEST(Generators, PlantedPartitionFavorsIntraClassEdges)
{
    Rng rng(19);
    const auto data = plantedPartition(300, 3, 0.2, 0.01, rng);
    EXPECT_EQ(data.labels.size(), 300u);
    uint64_t intra = 0, inter = 0;
    for (VertexId u = 0; u < data.graph.numVertices(); ++u)
        for (VertexId v : data.graph.neighbors(u))
            (data.labels[u] == data.labels[v] ? intra : inter)++;
    EXPECT_GT(intra, inter * 3);
}

TEST(Generators, DegreeCorrectedPartitionProducesHubs)
{
    Rng rng(23);
    const auto data =
        degreeCorrectedPartition(3000, 4, 12.0, 2.1, 0.1, rng);
    EXPECT_EQ(data.numClasses, 4);
    const auto degrees = data.graph.degrees();
    const auto maxDeg =
        *std::max_element(degrees.begin(), degrees.end());
    const double avg = data.graph.averageDegree();
    EXPECT_GT(maxDeg, avg * 5);
    EXPECT_NEAR(avg, 12.0 * 2.0 / 2.0, 6.0); // roughly the target
}

TEST(Catalog, TableThreeContents)
{
    const auto &all = DatasetCatalog::all();
    ASSERT_EQ(all.size(), 7u);
    const auto &ddi = DatasetCatalog::byName("ddi");
    EXPECT_EQ(ddi.numVertices, 4267u);
    EXPECT_EQ(ddi.numEdges, 1334889u);
    EXPECT_DOUBLE_EQ(ddi.avgDegree, 500.5);
    EXPECT_EQ(ddi.featureDim, 256u);
    EXPECT_EQ(ddi.task, TaskType::LinkPrediction);
    EXPECT_FALSE(ddi.isSparse());

    const auto &cora = DatasetCatalog::byName("Cora");
    EXPECT_TRUE(cora.isSparse());
    EXPECT_EQ(cora.featureDim, 1433u);

    const auto &products = DatasetCatalog::byName("products");
    EXPECT_EQ(products.numVertices, 2449029u);
}

TEST(Catalog, SetsMatchPaper)
{
    EXPECT_EQ(DatasetCatalog::figure13Set().size(), 5u);
    EXPECT_EQ(DatasetCatalog::motivationSet().size(), 6u);
}

TEST(Catalog, DegreeSequenceMatchesSpec)
{
    Rng rng(29);
    const auto &collab = DatasetCatalog::byName("collab");
    const auto degrees =
        DatasetCatalog::degreeSequence(collab, 0.1, rng);
    EXPECT_EQ(degrees.size(),
              static_cast<size_t>(collab.numVertices / 10));
    const double avg =
        std::accumulate(degrees.begin(), degrees.end(), 0.0) /
        static_cast<double>(degrees.size());
    EXPECT_NEAR(avg, collab.avgDegree, collab.avgDegree * 0.2);
}

TEST(Catalog, MaterializeSmallScale)
{
    Rng rng(31);
    const auto &ddi = DatasetCatalog::byName("ddi");
    const Graph g = DatasetCatalog::materialize(ddi, 0.25, rng);
    EXPECT_NEAR(static_cast<double>(g.numVertices()),
                ddi.numVertices * 0.25, 2.0);
    EXPECT_GT(g.averageDegree(), ddi.avgDegree * 0.3);
}

TEST(Catalog, ScaledPreservesAvgDegree)
{
    const auto &ppa = DatasetCatalog::byName("ppa");
    const auto half = DatasetCatalog::scaled(ppa, 0.5);
    EXPECT_EQ(half.numVertices, ppa.numVertices / 2);
    EXPECT_DOUBLE_EQ(half.avgDegree, ppa.avgDegree);
}

} // namespace
} // namespace gopim::graph
