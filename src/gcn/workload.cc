#include "gcn/workload.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "graph/graph.hh"

namespace gopim::gcn {

uint32_t
Workload::microBatchesPerEpoch() const
{
    GOPIM_ASSERT(microBatchSize > 0, "micro-batch size must be > 0");
    return static_cast<uint32_t>(
        ceilDiv(dataset.numVertices, microBatchSize));
}

Workload
Workload::paperDefault(const std::string &datasetName)
{
    Workload w;
    w.dataset = graph::DatasetCatalog::byName(datasetName);
    w.model = paperModelFor(datasetName);
    w.microBatchSize = 64; // paper default (Section VII-A)
    w.epochs = 1;
    return w;
}

double
ExecutionPolicy::resolvedTheta(const graph::DatasetSpec &dataset) const
{
    if (!selectiveUpdate)
        return 1.0;
    if (theta > 0.0)
        return theta;
    return mapping::adaptiveTheta(dataset.avgDegree);
}

VertexProfile
VertexProfile::build(const graph::DatasetSpec &dataset, uint64_t seed)
{
    Rng rng(seed);
    const auto drawn =
        graph::DatasetCatalog::degreeSequence(dataset, 1.0, rng);

    // Real OGB vertex ids correlate strongly with degree (insertion
    // order, community structure), which is what produces Fig. 6's
    // per-crossbar skew under index mapping and defeats OSU (Fig. 7).
    // Reproduce that: globally degree-sorted ids with local shuffling.
    // The sorted degrees overwrite the ranking in place, so sorting
    // needs no buffer beyond it.
    VertexProfile profile;
    profile.degrees = graph::orderByDegreeDesc(drawn);
    for (uint32_t &slot : profile.degrees)
        slot = drawn[slot];
    const size_t window = 256;
    for (size_t begin = 0; begin < profile.degrees.size();
         begin += window) {
        const size_t end =
            std::min(begin + window, profile.degrees.size());
        for (size_t i = end - begin; i > 1; --i) {
            const size_t j = rng.uniformInt(static_cast<uint64_t>(i));
            std::swap(profile.degrees[begin + i - 1],
                      profile.degrees[begin + j]);
        }
    }
    return profile;
}

} // namespace gopim::gcn
