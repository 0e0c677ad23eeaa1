#include "mapping/selective.hh"

#include <algorithm>

#include "common/logging.hh"
#include "graph/graph.hh"

namespace gopim::mapping {

double
adaptiveTheta(double avgDegree)
{
    return avgDegree <= 8.0 ? 0.8 : 0.5;
}

size_t
importantCount(size_t numVertices, double theta)
{
    GOPIM_ASSERT(theta >= 0.0 && theta <= 1.0,
                 "theta must be in [0, 1]");
    return std::min(numVertices,
                    static_cast<size_t>(
                        static_cast<double>(numVertices) * theta + 0.5));
}

std::vector<bool>
selectImportant(const std::vector<uint32_t> &degrees, double theta)
{
    const size_t n = degrees.size();
    const size_t keep = importantCount(n, theta);
    // Keeping none or every vertex needs no ranking.
    if (keep == 0 || keep == n)
        return std::vector<bool>(n, keep > 0);
    return selectImportantRanked(graph::orderByDegreeDesc(degrees), keep);
}

std::vector<bool>
selectImportantRanked(const std::vector<uint32_t> &order, size_t keep)
{
    GOPIM_ASSERT(keep <= order.size(), "cannot keep more than n vertices");
    std::vector<bool> important(order.size(), false);
    for (size_t i = 0; i < keep; ++i)
        important[order[i]] = true;
    return important;
}

std::vector<uint64_t>
hotEpochWrites(const VertexAssignment &assignment,
               const std::vector<bool> &important)
{
    GOPIM_ASSERT(assignment.groupOf.size() == important.size(),
                 "assignment/importance size mismatch");
    std::vector<uint64_t> writes(assignment.numGroups, 0);
    for (size_t v = 0; v < important.size(); ++v)
        if (important[v])
            ++writes[assignment.groupOf[v]];
    return writes;
}

std::vector<double>
expectedEpochWrites(const VertexAssignment &assignment,
                    const std::vector<bool> &important,
                    const SelectiveUpdateParams &params)
{
    GOPIM_ASSERT(assignment.groupOf.size() == important.size(),
                 "assignment/importance size mismatch");
    GOPIM_ASSERT(params.coldPeriod >= 1, "cold period must be >= 1");
    const double coldRate = 1.0 / params.coldPeriod;
    std::vector<double> writes(assignment.numGroups, 0.0);
    for (size_t v = 0; v < important.size(); ++v)
        writes[assignment.groupOf[v]] += important[v] ? 1.0 : coldRate;
    return writes;
}

double
epochUpdateSlots(const VertexAssignment &assignment,
                 const std::vector<bool> &important,
                 const SelectiveUpdateParams &params)
{
    const auto writes =
        expectedEpochWrites(assignment, important, params);
    return *std::max_element(writes.begin(), writes.end());
}

uint64_t
droppedDegreeMass(const std::vector<uint32_t> &degrees,
                  const std::vector<bool> &important)
{
    GOPIM_ASSERT(degrees.size() == important.size(),
                 "degree/importance size mismatch");
    uint64_t mass = 0;
    for (size_t v = 0; v < degrees.size(); ++v)
        if (!important[v])
            mass += degrees[v];
    return mass;
}

} // namespace gopim::mapping
