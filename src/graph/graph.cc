#include "graph/graph.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.hh"

namespace gopim::graph {

Graph
Graph::fromEdges(VertexId numVertices,
                 std::vector<std::pair<VertexId, VertexId>> edges)
{
    Graph g;
    g.numVertices_ = numVertices;
    const size_t n = numVertices;

    // Count both directions per source vertex; self-loops once.
    std::vector<uint64_t> rowPtr(n + 1, 0);
    for (auto [u, v] : edges) {
        GOPIM_ASSERT(u < numVertices && v < numVertices,
                     "edge endpoint out of range");
        ++rowPtr[u + 1];
        if (u != v)
            ++rowPtr[v + 1];
    }
    std::partial_sum(rowPtr.begin(), rowPtr.end(), rowPtr.begin());

    // Scatter each row's neighbors, in input order.
    std::vector<VertexId> scattered(rowPtr[n]);
    std::vector<uint64_t> cursor(rowPtr.begin(), rowPtr.end() - 1);
    for (auto [u, v] : edges) {
        scattered[cursor[u]++] = v;
        if (u != v)
            scattered[cursor[v]++] = u;
    }
    // Release each buffer once read: at most two are live at a time.
    edges = {};

    // Second stable counting pass: the scattered adjacency is
    // symmetric, so walking its rows v in ascending order and
    // appending v to the row of each neighbor u rebuilds every row in
    // ascending order, with a duplicate edge's copies adjacent, where
    // comparing with the row's last entry drops them.
    g.colIdx_.resize(scattered.size());
    std::copy(rowPtr.begin(), rowPtr.end() - 1, cursor.begin());
    uint64_t kept = 0;
    uint64_t selfLoops = 0;
    for (VertexId v = 0; v < numVertices; ++v) {
        for (uint64_t i = rowPtr[v]; i < rowPtr[v + 1]; ++i) {
            const VertexId u = scattered[i];
            uint64_t &next = cursor[u];
            if (next != rowPtr[u] && g.colIdx_[next - 1] == v)
                continue;
            g.colIdx_[next++] = v;
            ++kept;
            selfLoops += u == v;
        }
    }
    scattered = {};

    // Close the gaps the dropped duplicates left at the row ends.
    if (kept != g.colIdx_.size()) {
        uint64_t out = 0;
        for (size_t u = 0; u < n; ++u) {
            const uint64_t begin = rowPtr[u];
            rowPtr[u] = out;
            for (uint64_t i = begin; i < cursor[u]; ++i)
                g.colIdx_[out++] = g.colIdx_[i];
        }
        rowPtr[n] = out;
        g.colIdx_.resize(out);
        g.colIdx_.shrink_to_fit();
    }
    g.rowPtr_ = std::move(rowPtr);

    // Undirected edges: self-loops appear once, others twice.
    g.numEdges_ = (kept - selfLoops) / 2 + selfLoops;
    return g;
}

std::vector<uint32_t>
Graph::degrees() const
{
    std::vector<uint32_t> d(numVertices_);
    for (VertexId v = 0; v < numVertices_; ++v)
        d[v] = degree(v);
    return d;
}

double
Graph::averageDegree() const
{
    if (numVertices_ == 0)
        return 0.0;
    return static_cast<double>(colIdx_.size()) /
           static_cast<double>(numVertices_);
}

double
Graph::density() const
{
    if (numVertices_ < 2)
        return 0.0;
    const double v = static_cast<double>(numVertices_);
    return static_cast<double>(numEdges_) / (v * (v - 1.0) / 2.0);
}

bool
Graph::hasEdge(VertexId u, VertexId v) const
{
    GOPIM_ASSERT(u < numVertices_ && v < numVertices_,
                 "hasEdge: vertex out of range");
    const auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<VertexId>
Graph::verticesByDegreeDesc() const
{
    return orderByDegreeDesc(degrees());
}

namespace {

constexpr unsigned kDigitBits = 16;
constexpr uint32_t kDigitMask = (uint32_t{1} << kDigitBits) - 1;

/**
 * One stable counting pass: writes the ids of `in` (the identity
 * permutation when null) to `out` by ascending digit(keys[id]), equal
 * digits in `in` order. `next` is the reusable bucket-cursor buffer.
 */
template <typename Digit>
void
countingPass(const std::vector<uint32_t> &keys, size_t buckets,
             Digit digit, const VertexId *in, VertexId *out,
             std::vector<uint32_t> &next)
{
    next.assign(buckets, 0);
    for (const uint32_t key : keys)
        ++next[digit(key)];
    uint32_t start = 0;
    for (uint32_t &cursor : next) {
        const uint32_t count = cursor;
        cursor = start;
        start += count;
    }
    for (size_t i = 0; i < keys.size(); ++i) {
        const VertexId v = in ? in[i] : static_cast<VertexId>(i);
        out[next[digit(keys[v])]++] = v;
    }
}

} // namespace

std::vector<VertexId>
orderByDegreeDesc(const std::vector<uint32_t> &degrees)
{
    GOPIM_ASSERT(degrees.size() <= std::numeric_limits<VertexId>::max(),
                 "orderByDegreeDesc: too many vertices");
    std::vector<VertexId> order(degrees.size());
    if (degrees.empty())
        return order;

    // Sort ascending on the inverted key maxDegree - d, which is
    // descending degree; every pass is stable, so equal degrees keep
    // ascending ids.
    const uint32_t maxDegree =
        *std::max_element(degrees.begin(), degrees.end());
    std::vector<uint32_t> next;
    if (maxDegree <= kDigitMask) {
        countingPass(
            degrees, size_t{maxDegree} + 1,
            [maxDegree](uint32_t d) { return maxDegree - d; }, nullptr,
            order.data(), next);
        return order;
    }
    std::vector<VertexId> byLowDigit(degrees.size());
    countingPass(
        degrees, size_t{kDigitMask} + 1,
        [maxDegree](uint32_t d) { return (maxDegree - d) & kDigitMask; },
        nullptr, byLowDigit.data(), next);
    countingPass(
        degrees, size_t{kDigitMask} + 1,
        [maxDegree](uint32_t d) { return (maxDegree - d) >> kDigitBits; },
        byLowDigit.data(), order.data(), next);
    return order;
}

double
GraphStats::sparsity() const
{
    if (numVertices == 0)
        return 1.0;
    const double v = static_cast<double>(numVertices);
    // Symmetric adjacency: ~2E nonzeros.
    return 1.0 - 2.0 * static_cast<double>(numEdges) / (v * v);
}

GraphStats
computeStats(const Graph &g)
{
    GraphStats s;
    s.numVertices = g.numVertices();
    s.numEdges = g.numEdges();
    s.avgDegree = g.averageDegree();
    double maxDeg = 0.0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        maxDeg = std::max(maxDeg, static_cast<double>(g.degree(v)));
    s.maxDegree = maxDeg;
    return s;
}

} // namespace gopim::graph
