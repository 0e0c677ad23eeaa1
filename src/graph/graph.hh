/**
 * @file
 * CSR graph representation and builder.
 *
 * Graphs are undirected and stored as symmetric CSR. Vertex degrees
 * drive both the ISU vertex-importance ranking and the Aggregation
 * timing model, so degree accessors are first-class here.
 */

#ifndef GOPIM_GRAPH_GRAPH_HH
#define GOPIM_GRAPH_GRAPH_HH

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace gopim::graph {

using VertexId = uint32_t;

/** Immutable undirected graph in CSR form. */
class Graph
{
  public:
    Graph() = default;

    /**
     * Build from an edge list (undirected; both directions are added).
     * Self-loops are kept once; duplicate edges are removed.
     */
    static Graph fromEdges(VertexId numVertices,
                           std::vector<std::pair<VertexId, VertexId>> edges);

    VertexId numVertices() const { return numVertices_; }

    /** Number of undirected edges (each counted once). */
    uint64_t numEdges() const { return numEdges_; }

    /** Degree of vertex v (self-loop counts once). */
    uint32_t degree(VertexId v) const
    {
        return static_cast<uint32_t>(rowPtr_[v + 1] - rowPtr_[v]);
    }

    /** Neighbor list of vertex v. */
    std::span<const VertexId> neighbors(VertexId v) const
    {
        return {colIdx_.data() + rowPtr_[v],
                colIdx_.data() + rowPtr_[v + 1]};
    }

    /** All vertex degrees, indexed by vertex id. */
    std::vector<uint32_t> degrees() const;

    /** Average degree (2E/V for undirected graphs without self loops). */
    double averageDegree() const;

    /** Edge density: |E| / (V*(V-1)/2). */
    double density() const;

    /** True if an edge {u, v} exists (binary search in CSR row). */
    bool hasEdge(VertexId u, VertexId v) const;

    /**
     * Vertex ids sorted by descending degree (ties broken by id to keep
     * the order deterministic). This is the ISU importance ranking;
     * see orderByDegreeDesc.
     */
    std::vector<VertexId> verticesByDegreeDesc() const;

  private:
    VertexId numVertices_ = 0;
    uint64_t numEdges_ = 0;
    std::vector<uint64_t> rowPtr_;
    std::vector<VertexId> colIdx_;
};

/**
 * The degree ranking every degree-ordered decision uses (interleaved
 * mapping, ISU importance, profile ids, nnz-balanced partitions):
 * the permutation of vertex ids sorted by descending degree, equal
 * degrees in ascending id order. That is exactly what std::stable_sort
 * of the identity permutation under `degrees[a] > degrees[b]` yields,
 * so callers may rely on it bit for bit.
 *
 * A stable LSD radix sort on 16-bit digits: O(n) time and
 * O(n + 2^16) extra memory for any keys, one counting pass when every
 * key is below 2^16 (true of every catalog dataset).
 */
std::vector<VertexId> orderByDegreeDesc(const std::vector<uint32_t> &degrees);

/**
 * Summary statistics of a graph, sufficient for the analytic timing
 * model when the full edge structure is not materialized.
 */
struct GraphStats
{
    uint64_t numVertices = 0;
    uint64_t numEdges = 0;
    double avgDegree = 0.0;
    double maxDegree = 0.0;

    /** Sparsity of the adjacency matrix: 1 - nnz / V^2. */
    double sparsity() const;
};

/** Extract summary statistics from a materialized graph. */
GraphStats computeStats(const Graph &g);

} // namespace gopim::graph

#endif // GOPIM_GRAPH_GRAPH_HH
