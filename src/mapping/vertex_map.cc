#include "mapping/vertex_map.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "graph/graph.hh"

namespace gopim::mapping {

std::string
toString(VertexMapStrategy s)
{
    switch (s) {
      case VertexMapStrategy::IndexBased:
        return "index-based";
      case VertexMapStrategy::Interleaved:
        return "interleaved";
    }
    panic("unknown mapping strategy");
}

namespace {

/** An assignment of `n` vertices with its group count, groups unset. */
VertexAssignment
emptyAssignment(size_t n, uint32_t rowsPerGroup)
{
    GOPIM_ASSERT(n > 0, "cannot map zero vertices");
    GOPIM_ASSERT(rowsPerGroup > 0, "row group must hold >= 1 vertex");
    VertexAssignment out;
    out.rowsPerGroup = rowsPerGroup;
    out.numGroups = static_cast<uint32_t>(ceilDiv(n, rowsPerGroup));
    out.groupOf.resize(n);
    return out;
}

} // namespace

VertexAssignment
mapVertices(const std::vector<uint32_t> &degrees, uint32_t rowsPerGroup,
            VertexMapStrategy strategy)
{
    switch (strategy) {
      case VertexMapStrategy::IndexBased: {
        auto out = emptyAssignment(degrees.size(), rowsPerGroup);
        for (uint32_t v = 0; v < out.groupOf.size(); ++v)
            out.groupOf[v] = v / rowsPerGroup;
        return out;
      }
      case VertexMapStrategy::Interleaved:
        return interleaveRanked(graph::orderByDegreeDesc(degrees),
                                rowsPerGroup);
    }
    panic("unknown mapping strategy");
}

VertexAssignment
interleaveRanked(const std::vector<uint32_t> &order, uint32_t rowsPerGroup)
{
    // Deal the ranked list round-robin across groups: rank i -> group
    // i % numGroups. Group capacity is respected automatically
    // because each group receives every numGroups-th rank.
    auto out = emptyAssignment(order.size(), rowsPerGroup);
    uint32_t group = 0;
    for (const uint32_t v : order) {
        out.groupOf[v] = group;
        if (++group == out.numGroups)
            group = 0;
    }
    return out;
}

std::vector<double>
perGroupAvgDegree(const VertexAssignment &assignment,
                  const std::vector<uint32_t> &degrees)
{
    GOPIM_ASSERT(assignment.groupOf.size() == degrees.size(),
                 "assignment/degree size mismatch");
    std::vector<double> sums(assignment.numGroups, 0.0);
    std::vector<uint32_t> counts(assignment.numGroups, 0);
    for (size_t v = 0; v < degrees.size(); ++v) {
        sums[assignment.groupOf[v]] += degrees[v];
        ++counts[assignment.groupOf[v]];
    }
    for (size_t g = 0; g < sums.size(); ++g)
        if (counts[g] > 0)
            sums[g] /= counts[g];
    return sums;
}

double
MinMax::skew() const
{
    return max / std::max(min, 1e-9);
}

MinMax
minMax(const std::vector<double> &values)
{
    GOPIM_ASSERT(!values.empty(), "minMax of empty vector");
    MinMax mm;
    mm.min = *std::min_element(values.begin(), values.end());
    mm.max = *std::max_element(values.begin(), values.end());
    return mm;
}

std::vector<uint32_t>
remapGroupsByHealth(const std::vector<double> &groupLoad,
                    const std::vector<double> &groupFaultScore)
{
    GOPIM_ASSERT(groupLoad.size() == groupFaultScore.size(),
                 "load/fault score size mismatch");
    GOPIM_ASSERT(!groupLoad.empty(), "cannot remap zero groups");

    const auto n = static_cast<uint32_t>(groupLoad.size());
    std::vector<uint32_t> byLoad(n), byHealth(n);
    std::iota(byLoad.begin(), byLoad.end(), 0);
    std::iota(byHealth.begin(), byHealth.end(), 0);
    std::stable_sort(byLoad.begin(), byLoad.end(),
                     [&groupLoad](uint32_t a, uint32_t b) {
                         return groupLoad[a] != groupLoad[b]
                                    ? groupLoad[a] > groupLoad[b]
                                    : a < b;
                     });
    std::stable_sort(
        byHealth.begin(), byHealth.end(),
        [&groupFaultScore](uint32_t a, uint32_t b) {
            return groupFaultScore[a] != groupFaultScore[b]
                       ? groupFaultScore[a] < groupFaultScore[b]
                       : a < b;
        });

    std::vector<uint32_t> physicalOf(n);
    for (uint32_t rank = 0; rank < n; ++rank)
        physicalOf[byLoad[rank]] = byHealth[rank];
    return physicalOf;
}

} // namespace gopim::mapping
