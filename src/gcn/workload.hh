/**
 * @file
 * Workload descriptor: a dataset, a model, and the batching regime,
 * plus the execution policy knobs that differentiate the compared
 * accelerator systems, and the vertex profile (degrees) that drives
 * mapping-dependent costs for the policies that rank vertices.
 */

#ifndef GOPIM_GCN_WORKLOAD_HH
#define GOPIM_GCN_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hh"
#include "graph/datasets.hh"
#include "gcn/model.hh"
#include "mapping/selective.hh"
#include "mapping/vertex_map.hh"

namespace gopim::gcn {

/** One training workload (Section VII-A setup). */
struct Workload
{
    graph::DatasetSpec dataset;
    GcnModelConfig model;
    uint32_t microBatchSize = 64;
    uint32_t epochs = 1;
    uint64_t seed = 1;

    /** Micro-batches needed to cover the vertex set once. */
    uint32_t microBatchesPerEpoch() const;

    /** Paper-default workload for a dataset name. */
    static Workload paperDefault(const std::string &datasetName);
};

/**
 * Execution policy: which of the paper's techniques are active. The
 * named systems (Serial, SlimGNN-like, ...) are policy presets
 * combined with an allocator choice in core/systems.hh.
 */
struct ExecutionPolicy
{
    mapping::VertexMapStrategy mapStrategy =
        mapping::VertexMapStrategy::IndexBased;

    /** Selective vertex updating on/off. */
    bool selectiveUpdate = false;
    /** Update threshold; <= 0 selects the adaptive rule (§VI-C). */
    double theta = 0.0;
    uint32_t coldPeriod = 20;

    /** Pipelining regime. */
    bool intraBatchPipeline = false;
    bool interBatchPipeline = false;

    /**
     * ReFlip-style hybrid execution: low-degree vertices execute
     * column-major and are repeatedly reloaded, adding write traffic
     * proportional to edge count (Section VII-B's explanation).
     */
    bool hybridReload = false;

    /** SlimGNN-like input subgraph pruning: fraction of edges kept. */
    double edgeKeepFraction = 1.0;

    /** Resolved update threshold for a dataset. */
    double resolvedTheta(const graph::DatasetSpec &dataset) const;

    /**
     * True when costing this policy reads the degree profile:
     * interleaved mapping deals vertices by degree rank, and a
     * resolved theta below 1 selects the top-theta vertices and
     * prices cold refreshes. Otherwise (index mapping, every vertex
     * updated every epoch) MappingArtifacts::fullUpdateApprox is
     * exact.
     */
    bool needsDegreeProfile(const graph::DatasetSpec &dataset) const;
};

/**
 * Degree profile of a workload's (synthetic) graph, read by the
 * mapping artifacts (gcn::MappingArtifacts::build) of policies that
 * rank vertices.
 */
struct VertexProfile
{
    std::vector<uint32_t> degrees;

    /** Build by sampling the dataset's degree distribution. */
    static VertexProfile build(const graph::DatasetSpec &dataset,
                               uint64_t seed);
};

/**
 * Supplies a vertex profile on demand. Planning calls it only when
 * the policy ranks vertices or fault wear needs the per-vertex
 * mapping, so a provider may defer an expensive build.
 */
using ProfileProvider = std::function<const VertexProfile &()>;

/**
 * A provider that builds `workload`'s profile on its first call and
 * returns the same profile afterwards. Copies share that profile.
 */
ProfileProvider lazyProfile(const Workload &workload);

} // namespace gopim::gcn

#endif // GOPIM_GCN_WORKLOAD_HH
