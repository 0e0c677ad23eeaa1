/**
 * @file
 * Synthetic graph generators.
 *
 * These substitute for the OGB datasets (see DESIGN.md §1): every
 * mechanism GoPIM evaluates depends on graph statistics (vertex count,
 * degree distribution, density), which the generators reproduce.
 */

#ifndef GOPIM_GRAPH_GENERATORS_HH
#define GOPIM_GRAPH_GENERATORS_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "graph/graph.hh"

namespace gopim::graph {

/**
 * Sample a power-law degree sequence with the given average degree.
 *
 * Degrees follow a truncated Pareto-like distribution with exponent
 * `alpha` (typical social/biological graphs: 2.0-2.5), rescaled so the
 * sample mean matches `avgDegree`, clamped to [1, maxDegree].
 */
std::vector<uint32_t> powerLawDegreeSequence(uint64_t numVertices,
                                             double avgDegree,
                                             double alpha,
                                             uint32_t maxDegree,
                                             Rng &rng);

/**
 * Chung-Lu graph: edge {u,v} sampled with probability proportional to
 * w_u * w_v, where weights are the target degree sequence. Realized
 * degrees approximate the targets in expectation.
 */
Graph chungLu(const std::vector<uint32_t> &targetDegrees, Rng &rng);

/**
 * The edge list chungLu samples, in sampling order, before the CSR
 * build: the same RNG draws, so chungLu(d, rng) equals
 * Graph::fromEdges(d.size(), chungLuEdges(d, rng)).
 */
std::vector<std::pair<VertexId, VertexId>>
chungLuEdges(const std::vector<uint32_t> &targetDegrees, Rng &rng);

/** Erdos-Renyi G(n, p). */
Graph erdosRenyi(VertexId numVertices, double p, Rng &rng);

/**
 * R-MAT recursive-matrix generator (Chakrabarti et al.): numEdges
 * samples placed by recursive quadrant descent with probabilities
 * (a, b, c, d = 1-a-b-c). Produces the community + power-law
 * structure typical of web/social graphs. numVertices is rounded up
 * to a power of two internally; ids beyond numVertices are rejected.
 */
Graph rmat(VertexId numVertices, uint64_t numEdges, double a, double b,
           double c, Rng &rng);

/**
 * Planted-partition (stochastic block model) graph for the functional
 * accuracy experiments: `numClasses` equal communities, intra-class
 * edge probability pIn, inter-class pOut, plus per-class label vector.
 */
struct LabeledGraph
{
    Graph graph;
    std::vector<int> labels;
    int numClasses = 0;
};

LabeledGraph plantedPartition(VertexId numVertices, int numClasses,
                              double pIn, double pOut, Rng &rng);

/**
 * Planted-partition variant with power-law degree heterogeneity
 * (degree-corrected SBM): multiplies edge probabilities by per-vertex
 * power-law weights so that hub vertices emerge, which is what makes
 * degree-based selective updating meaningful.
 */
LabeledGraph degreeCorrectedPartition(VertexId numVertices, int numClasses,
                                      double avgDegree, double alpha,
                                      double mixing, Rng &rng);

} // namespace gopim::graph

#endif // GOPIM_GRAPH_GENERATORS_HH
