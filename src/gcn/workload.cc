#include "gcn/workload.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/logging.hh"
#include "common/math_utils.hh"

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

bool
ExecutionPolicy::needsDegreeProfile(const graph::DatasetSpec &dataset) const
{
    return mapStrategy == mapping::VertexMapStrategy::Interleaved ||
           resolvedTheta(dataset) != 1.0;
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
    // Only the degree values are kept, so a counting sort over them
    // gives the sorted sequence; the draw caps every degree below the
    // vertex count, which bounds the count table. The sorted values go
    // to a fresh vector and the draw is freed: sorting over the draw
    // in place raised the grid benchmark's peak RSS by about 6 MiB.
    std::vector<size_t> count(
        size_t{*std::max_element(drawn.begin(), drawn.end())} + 1);
    for (const uint32_t d : drawn)
        ++count[d];
    VertexProfile profile;
    auto &degrees = profile.degrees;
    degrees.reserve(drawn.size());
    for (size_t d = count.size(); d-- > 0;)
        degrees.insert(degrees.end(), count[d], static_cast<uint32_t>(d));

    const size_t window = 256;
    for (size_t begin = 0; begin < degrees.size(); begin += window) {
        const size_t end = std::min(begin + window, degrees.size());
        for (size_t i = end - begin; i > 1; --i) {
            const size_t j = rng.uniformInt(static_cast<uint64_t>(i));
            std::swap(degrees[begin + i - 1], degrees[begin + j]);
        }
    }
    return profile;
}

ProfileProvider
lazyProfile(const Workload &workload)
{
    auto built = std::make_shared<std::optional<VertexProfile>>();
    return [built, dataset = workload.dataset,
            seed = workload.seed]() -> const VertexProfile & {
        if (!*built)
            *built = VertexProfile::build(dataset, seed);
        return **built;
    };
}

} // namespace gopim::gcn
