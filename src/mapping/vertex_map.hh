/**
 * @file
 * Vertex-to-crossbar mapping strategies.
 *
 * Index-based mapping (ReGraphX / SlimGNN style) places vertices in id
 * order, 64 per crossbar row group, producing heavily skewed per-
 * crossbar degree distributions (Fig. 6). Interleaved mapping (ISU,
 * Section VI-B) sorts vertices by degree and deals them round-robin
 * across row groups, balancing both degree mass and selective-update
 * write load.
 */

#ifndef GOPIM_MAPPING_VERTEX_MAP_HH
#define GOPIM_MAPPING_VERTEX_MAP_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gopim::mapping {

/** Mapping strategy selector. */
enum class VertexMapStrategy { IndexBased, Interleaved };

/** Human-readable strategy name. */
std::string toString(VertexMapStrategy s);

/**
 * Assignment of vertices to crossbar row groups. Row group g holds the
 * vertices v with groupOf[v] == g; each group has `rowsPerGroup`
 * wordlines (64 by default), so it holds at most that many vertices.
 */
struct VertexAssignment
{
    std::vector<uint32_t> groupOf; ///< row group per vertex
    uint32_t numGroups = 0;
    uint32_t rowsPerGroup = 0;
};

/**
 * Map `degrees.size()` vertices onto row groups of `rowsPerGroup`
 * wordlines with the chosen strategy. Interleaved mapping uses the
 * degree ranking (graph::orderByDegreeDesc) as the deal order.
 */
VertexAssignment mapVertices(const std::vector<uint32_t> &degrees,
                             uint32_t rowsPerGroup,
                             VertexMapStrategy strategy);

/**
 * Interleaved mapping of an already computed degree ranking
 * (graph::orderByDegreeDesc): rank i goes to group i % numGroups.
 * Lets a caller that also needs the ranking elsewhere compute it once.
 */
VertexAssignment interleaveRanked(const std::vector<uint32_t> &order,
                                  uint32_t rowsPerGroup);

/** Average vertex degree per row group (Fig. 6's metric). */
std::vector<double> perGroupAvgDegree(const VertexAssignment &assignment,
                                      const std::vector<uint32_t> &degrees);

/** Min/max summary of a per-group metric vector. */
struct MinMax
{
    double min = 0.0;
    double max = 0.0;
    /** max / min, with min clamped away from zero. */
    double skew() const;
};

MinMax minMax(const std::vector<double> &values);

/**
 * Fault-aware group remap: choose which *physical* row group backs
 * each logical group so that the heaviest write loads land on the
 * healthiest hardware. Logical groups ranked by load (descending)
 * are paired with physical groups ranked by fault score (ascending);
 * ties break toward the lower index, so the permutation is a
 * deterministic function of its inputs. Returns physicalOf[logical].
 *
 * The fault score a logical group then experiences is
 * groupFaultScore[physicalOf[g]]; see fault::writeExposure for the
 * aggregate metric this remap minimizes.
 */
std::vector<uint32_t>
remapGroupsByHealth(const std::vector<double> &groupLoad,
                    const std::vector<double> &groupFaultScore);

} // namespace gopim::mapping

#endif // GOPIM_MAPPING_VERTEX_MAP_HH
