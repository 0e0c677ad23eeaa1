/**
 * @file
 * Selective vertex updating (Section VI of the paper).
 *
 * Vertices are ranked by degree; the top theta fraction ("important")
 * are rewritten every epoch, the rest every `coldPeriod` (20) epochs.
 * Combined with a vertex mapping, this yields per-crossbar write loads:
 * serial within a crossbar row group, parallel across groups, so the
 * update time of an epoch is bounded by the most-loaded group. OSU
 * (index mapping + selection) fails to reduce that bound (Fig. 7);
 * ISU (interleaved mapping + selection) reduces it proportionally.
 */

#ifndef GOPIM_MAPPING_SELECTIVE_HH
#define GOPIM_MAPPING_SELECTIVE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mapping/vertex_map.hh"

namespace gopim::mapping {

/** Parameters of the selective-update policy. */
struct SelectiveUpdateParams
{
    /** Fraction of vertices updated every epoch (paper's theta). */
    double theta = 1.0;
    /** Cold vertices are refreshed once per this many epochs. */
    uint32_t coldPeriod = 20;
};

/**
 * Paper's adaptive threshold rule (Section VI-C): graphs with average
 * degree <= 8 are sparse and use theta = 0.8; denser graphs use 0.5.
 */
double adaptiveTheta(double avgDegree);

/** Important vertices out of `numVertices`: n * theta, rounded half up. */
size_t importantCount(size_t numVertices, double theta);

/**
 * Mark the top `theta` fraction of vertices by degree as important.
 * Ties break toward lower vertex id for determinism. Keeping none or
 * all of them ranks nothing.
 */
std::vector<bool> selectImportant(const std::vector<uint32_t> &degrees,
                                  double theta);

/**
 * Mark the first `keep` vertices of an already computed degree
 * ranking (graph::orderByDegreeDesc) as important.
 */
std::vector<bool> selectImportantRanked(const std::vector<uint32_t> &order,
                                        size_t keep);

/**
 * Row writes per group for one *hot* epoch, where only important
 * vertices are written. This is the integer-cycle view used by the
 * Fig. 7 example.
 */
std::vector<uint64_t> hotEpochWrites(const VertexAssignment &assignment,
                                     const std::vector<bool> &important);

/**
 * Expected row writes per group per epoch, amortizing cold refreshes
 * over the cold period: important -> 1, cold -> 1/coldPeriod.
 */
std::vector<double> expectedEpochWrites(
    const VertexAssignment &assignment,
    const std::vector<bool> &important,
    const SelectiveUpdateParams &params);

/**
 * Update-time bound (in row-write slots) for one epoch: the maximum
 * per-group expected write count (serial within a group, parallel
 * across groups).
 */
double epochUpdateSlots(const VertexAssignment &assignment,
                        const std::vector<bool> &important,
                        const SelectiveUpdateParams &params);

/** Sum of degrees of dropped (non-important) vertices, for reporting. */
uint64_t droppedDegreeMass(const std::vector<uint32_t> &degrees,
                           const std::vector<bool> &important);

} // namespace gopim::mapping

#endif // GOPIM_MAPPING_SELECTIVE_HH
