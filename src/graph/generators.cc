#include "graph/generators.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace gopim::graph {

std::vector<uint32_t>
powerLawDegreeSequence(uint64_t numVertices, double avgDegree, double alpha,
                       uint32_t maxDegree, Rng &rng)
{
    GOPIM_ASSERT(numVertices > 0, "empty degree sequence requested");
    GOPIM_ASSERT(avgDegree >= 1.0, "average degree must be >= 1");
    GOPIM_ASSERT(alpha > 1.0, "power-law exponent must exceed 1");

    // Draw from a Pareto with x_min = 1 via inverse transform, then
    // rescale to hit the requested mean. Clamping to [1, maxDegree]
    // biases the mean, so refine the scale with fixed-point steps.
    std::vector<double> raw(numVertices);
    double total = 0.0;
    for (auto &d : raw) {
        const double u = std::max(rng.uniform(), 1e-12);
        d = std::pow(u, -1.0 / (alpha - 1.0));
        d = std::min(d, static_cast<double>(maxDegree));
        total += d;
    }
    double scale = avgDegree * static_cast<double>(numVertices) / total;
    for (int iter = 0; iter < 8; ++iter) {
        double clampedTotal = 0.0;
        for (double d : raw)
            clampedTotal += std::clamp(
                d * scale, 1.0, static_cast<double>(maxDegree));
        const double achieved =
            clampedTotal / static_cast<double>(numVertices);
        if (std::abs(achieved - avgDegree) < 0.01 * avgDegree)
            break;
        scale *= avgDegree / achieved;
    }

    std::vector<uint32_t> degrees(numVertices);
    for (uint64_t i = 0; i < numVertices; ++i) {
        const double d = std::clamp(raw[i] * scale, 1.0,
                                    static_cast<double>(maxDegree));
        // Stochastic rounding preserves the mean.
        const auto floorD = static_cast<uint32_t>(d);
        degrees[i] = floorD + (rng.uniform() <
                               d - static_cast<double>(floorD) ? 1u : 0u);
        degrees[i] = std::max(degrees[i], 1u);
    }
    return degrees;
}

std::vector<std::pair<VertexId, VertexId>>
chungLuEdges(const std::vector<uint32_t> &targetDegrees, Rng &rng)
{
    const auto n = static_cast<VertexId>(targetDegrees.size());
    GOPIM_ASSERT(n > 1, "Chung-Lu needs at least two vertices");

    double weightSum = 0.0;
    for (uint32_t d : targetDegrees)
        weightSum += d;
    GOPIM_ASSERT(weightSum > 0.0, "Chung-Lu: zero total degree");

    // Efficient Chung-Lu sampling (Miller & Hagberg): process vertices
    // in descending weight order; for each u, skip ahead geometrically
    // among candidate partners v > u.
    std::vector<VertexId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
        return targetDegrees[a] > targetDegrees[b];
    });

    std::vector<std::pair<VertexId, VertexId>> edges;
    edges.reserve(static_cast<size_t>(weightSum / 2.0));

    for (VertexId i = 0; i < n; ++i) {
        const VertexId u = order[i];
        const double wu = targetDegrees[u];
        if (wu <= 0.0)
            break;
        VertexId j = i + 1;
        // Probability cap with the largest remaining weight.
        double p = std::min(
            1.0, wu * targetDegrees[order[std::min(j, n - 1)]] / weightSum);
        while (j < n && p > 0.0) {
            if (p < 1.0) {
                const double r = std::max(rng.uniform(), 1e-300);
                j += static_cast<VertexId>(std::log(r) / std::log(1.0 - p));
            }
            if (j < n) {
                const VertexId v = order[j];
                const double q =
                    std::min(1.0, wu * targetDegrees[v] / weightSum);
                if (rng.uniform() < q / p)
                    edges.emplace_back(u, v);
                p = q;
                ++j;
            }
        }
    }
    return edges;
}

Graph
chungLu(const std::vector<uint32_t> &targetDegrees, Rng &rng)
{
    return Graph::fromEdges(
        static_cast<VertexId>(targetDegrees.size()),
        chungLuEdges(targetDegrees, rng));
}

Graph
erdosRenyi(VertexId numVertices, double p, Rng &rng)
{
    GOPIM_ASSERT(p >= 0.0 && p <= 1.0, "edge probability out of range");
    std::vector<std::pair<VertexId, VertexId>> edges;
    if (p <= 0.0 || numVertices < 2)
        return Graph::fromEdges(numVertices, std::move(edges));

    // Geometric skipping over the upper triangle.
    const double logq = std::log(1.0 - p);
    const uint64_t totalPairs =
        static_cast<uint64_t>(numVertices) * (numVertices - 1) / 2;
    uint64_t idx = 0;
    while (true) {
        const double r = std::max(rng.uniform(), 1e-300);
        uint64_t skip = p >= 1.0
                            ? 0
                            : static_cast<uint64_t>(std::log(r) / logq);
        idx += skip;
        if (idx >= totalPairs)
            break;
        // Decode linear index into (u, v) in the upper triangle.
        const double fid = static_cast<double>(idx);
        auto u = static_cast<VertexId>(
            (2.0 * numVertices - 1.0 -
             std::sqrt((2.0 * numVertices - 1.0) *
                           (2.0 * numVertices - 1.0) -
                       8.0 * fid)) /
            2.0);
        uint64_t rowStart =
            static_cast<uint64_t>(u) * numVertices -
            static_cast<uint64_t>(u) * (u + 1) / 2;
        while (u + 1 < numVertices) {
            const uint64_t nextRow =
                rowStart + (numVertices - u - 1);
            if (idx < nextRow)
                break;
            rowStart = nextRow;
            ++u;
        }
        const auto v = static_cast<VertexId>(u + 1 + (idx - rowStart));
        if (v < numVertices)
            edges.emplace_back(u, v);
        ++idx;
    }
    return Graph::fromEdges(numVertices, std::move(edges));
}

Graph
rmat(VertexId numVertices, uint64_t numEdges, double a, double b,
     double c, Rng &rng)
{
    GOPIM_ASSERT(numVertices >= 2, "R-MAT needs at least two vertices");
    const double d = 1.0 - a - b - c;
    GOPIM_ASSERT(a > 0.0 && b >= 0.0 && c >= 0.0 && d > 0.0,
                 "R-MAT probabilities must be positive and sum to 1");

    uint32_t levels = 0;
    while ((1ull << levels) < numVertices)
        ++levels;

    std::vector<std::pair<VertexId, VertexId>> edges;
    edges.reserve(numEdges);
    uint64_t placed = 0;
    uint64_t attempts = 0;
    const uint64_t maxAttempts = numEdges * 20 + 1000;
    while (placed < numEdges && attempts < maxAttempts) {
        ++attempts;
        uint64_t u = 0, v = 0;
        for (uint32_t level = 0; level < levels; ++level) {
            const double r = rng.uniform();
            u <<= 1;
            v <<= 1;
            if (r < a) {
                // top-left quadrant: no bits set
            } else if (r < a + b) {
                v |= 1;
            } else if (r < a + b + c) {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        if (u >= numVertices || v >= numVertices || u == v)
            continue;
        edges.emplace_back(static_cast<VertexId>(u),
                           static_cast<VertexId>(v));
        ++placed;
    }
    return Graph::fromEdges(numVertices, std::move(edges));
}

LabeledGraph
plantedPartition(VertexId numVertices, int numClasses, double pIn,
                 double pOut, Rng &rng)
{
    GOPIM_ASSERT(numClasses > 0, "need at least one class");
    LabeledGraph out;
    out.numClasses = numClasses;
    out.labels.resize(numVertices);
    for (VertexId v = 0; v < numVertices; ++v)
        out.labels[v] = static_cast<int>(v) % numClasses;

    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId u = 0; u < numVertices; ++u) {
        for (VertexId v = u + 1; v < numVertices; ++v) {
            const double p =
                out.labels[u] == out.labels[v] ? pIn : pOut;
            if (rng.bernoulli(p))
                edges.emplace_back(u, v);
        }
    }
    out.graph = Graph::fromEdges(numVertices, std::move(edges));
    return out;
}

LabeledGraph
degreeCorrectedPartition(VertexId numVertices, int numClasses,
                         double avgDegree, double alpha, double mixing,
                         Rng &rng)
{
    GOPIM_ASSERT(mixing >= 0.0 && mixing <= 1.0,
                 "mixing must be in [0, 1]");
    LabeledGraph out;
    out.numClasses = numClasses;
    out.labels.resize(numVertices);
    for (VertexId v = 0; v < numVertices; ++v)
        out.labels[v] = static_cast<int>(rng.uniformInt(
            static_cast<uint64_t>(numClasses)));

    const auto weights = powerLawDegreeSequence(
        numVertices, avgDegree, alpha,
        std::max<uint32_t>(8, numVertices / 2), rng);
    double weightSum = 0.0;
    for (auto w : weights)
        weightSum += w;

    // Chung-Lu style sampling, but retain cross-class edges only with
    // probability `mixing` (and intra-class always), then top up with
    // random intra-class edges to keep the expected density.
    std::vector<std::pair<VertexId, VertexId>> edges;
    const auto expectedEdges = static_cast<uint64_t>(
        avgDegree * numVertices / 2.0);
    edges.reserve(expectedEdges);

    // Weighted endpoint sampler (alias-free: cumulative + binary search).
    std::vector<double> cumWeights(numVertices);
    double acc = 0.0;
    for (VertexId v = 0; v < numVertices; ++v) {
        acc += weights[v];
        cumWeights[v] = acc;
    }
    auto sampleVertex = [&]() {
        const double r = rng.uniform() * acc;
        const auto it = std::lower_bound(cumWeights.begin(),
                                         cumWeights.end(), r);
        return static_cast<VertexId>(it - cumWeights.begin());
    };

    uint64_t made = 0;
    uint64_t attempts = 0;
    const uint64_t maxAttempts = expectedEdges * 20 + 1000;
    while (made < expectedEdges && attempts < maxAttempts) {
        ++attempts;
        const VertexId u = sampleVertex();
        const VertexId v = sampleVertex();
        if (u == v)
            continue;
        const bool sameClass = out.labels[u] == out.labels[v];
        if (!sameClass && !rng.bernoulli(mixing))
            continue;
        edges.emplace_back(std::min(u, v), std::max(u, v));
        ++made;
    }
    out.graph = Graph::fromEdges(numVertices, std::move(edges));
    return out;
}

} // namespace gopim::graph
