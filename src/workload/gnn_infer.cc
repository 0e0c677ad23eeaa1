#include "workload/gnn_infer.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "common/rng.hh"
#include "gcn/workload.hh"
#include "graph/datasets.hh"
#include "mapping/tiling.hh"
#include "reram/latency.hh"

namespace gopim::workload {

namespace {

/**
 * Vertex cap for the measurement instance. Degree distributions are
 * scale-free, so a capped Chung-Lu sample measures the same relative
 * nnz imbalance as the full graph at a fraction of the build cost.
 */
constexpr uint64_t kMaxProfileVertices = 32768;

/** Partition count ceiling (PyGim's PIM-core grid is this order). */
constexpr uint32_t kMaxParts = 256;

uint32_t
partsFor(uint64_t numVertices, const reram::AcceleratorConfig &hw)
{
    const uint64_t byRows =
        ceilDiv(numVertices, static_cast<uint64_t>(hw.crossbar.rows));
    return static_cast<uint32_t>(std::clamp<uint64_t>(
        byRows, 2, static_cast<uint64_t>(kMaxParts)));
}

double
imbalanceOf(const std::vector<uint64_t> &partNnz, uint64_t totalNnz)
{
    if (totalNnz == 0 || partNnz.empty())
        return 1.0;
    const uint64_t maxPart =
        *std::max_element(partNnz.begin(), partNnz.end());
    const double mean = static_cast<double>(totalNnz) /
                        static_cast<double>(partNnz.size());
    return std::max(1.0, static_cast<double>(maxPart) / mean);
}

} // namespace

PartitionProfile
profilePartitioning(const graph::Graph &g, Partitioning strategy,
                    uint32_t parts)
{
    GOPIM_ASSERT(parts > 0, "need at least one partition");
    const uint64_t v = g.numVertices();
    std::vector<uint64_t> partNnz(parts, 0);
    uint64_t totalNnz = 0;

    PartitionProfile profile;
    profile.strategy = strategy;
    profile.parts = parts;

    switch (strategy) {
    case Partitioning::RowSplit: {
        // Contiguous vertex ranges: partition p owns rows
        // [p*span, (p+1)*span). All of a row's nonzeros stay local,
        // so there is no merge, but a range of hubs overloads its
        // partition.
        const uint64_t span = std::max<uint64_t>(1, ceilDiv(v, parts));
        for (graph::VertexId u = 0; u < v; ++u) {
            const uint32_t d = g.degree(u);
            partNnz[std::min<uint64_t>(u / span, parts - 1)] += d;
            totalNnz += d;
        }
        profile.mergeWindows = 0;
        break;
    }
    case Partitioning::ColSplit: {
        // Edges bucketed by neighbor-id range: every partition sees a
        // slice of each row, so rows need a cross-partition
        // partial-sum reduction — a log-depth merge tree per
        // micro-batch.
        const uint64_t span = std::max<uint64_t>(1, ceilDiv(v, parts));
        for (graph::VertexId u = 0; u < v; ++u) {
            for (const graph::VertexId n : g.neighbors(u)) {
                partNnz[std::min<uint64_t>(n / span, parts - 1)] += 1;
                ++totalNnz;
            }
        }
        profile.mergeWindows = static_cast<uint32_t>(std::ceil(
            std::log2(static_cast<double>(std::max(2u, parts)))));
        break;
    }
    case Partitioning::NnzBalanced: {
        // LPT: rows in descending-degree order each go to the
        // currently least-loaded partition, the lowest index among
        // ties. Near-perfect balance; the gather indirection costs
        // one extra window pass.
        using Load = std::pair<uint64_t, uint32_t>; // (nnz, partition)
        std::priority_queue<Load, std::vector<Load>, std::greater<>>
            lightest;
        for (uint32_t p = 0; p < parts; ++p)
            lightest.emplace(0, p);
        for (const graph::VertexId u : g.verticesByDegreeDesc()) {
            const auto [load, p] = lightest.top();
            lightest.pop();
            const uint32_t d = g.degree(u);
            partNnz[p] = load + d;
            lightest.emplace(load + d, p);
            totalNnz += d;
        }
        profile.mergeWindows = 1;
        break;
    }
    }

    profile.imbalance = imbalanceOf(partNnz, totalNnz);
    return profile;
}

std::string
GnnInferFamily::validateSpec(const WorkloadSpec &spec) const
{
    if (graph::DatasetCatalog::findByName(spec.dataset) == nullptr)
        return "unknown dataset '" + spec.dataset +
               "' (gnn-infer uses the Table III graph catalog)";
    if (spec.microBatchSize == 0 || spec.microBatchSize > 4096)
        return "micro-batch size must lie in [1, 4096]";
    if (spec.epochs == 0)
        return "need at least one inference pass (epochs >= 1)";
    return "";
}

core::StageCosts
GnnInferFamily::plan(const WorkloadSpec &spec,
                     const reram::AcceleratorConfig &hw) const
{
    const std::string problem = validateSpec(spec);
    GOPIM_ASSERT(problem.empty(), "invalid gnn-infer spec");

    auto w = gcn::Workload::paperDefault(spec.dataset);
    w.microBatchSize = spec.microBatchSize;
    w.epochs = spec.epochs;
    w.seed = spec.seed;

    // Measure the split quality on a capped materialized instance;
    // the imbalance ratio transfers to the full-size analytic time.
    const uint64_t v = w.dataset.numVertices;
    const double scale = v > kMaxProfileVertices
                             ? static_cast<double>(kMaxProfileVertices) /
                                   static_cast<double>(v)
                             : 1.0;
    Rng rng(spec.seed);
    const graph::Graph g =
        graph::DatasetCatalog::materialize(w.dataset, scale, rng);
    const uint32_t parts = partsFor(v, hw);
    const PartitionProfile split =
        profilePartitioning(g, spec.partition, parts);

    // Cross-partition merge: each input's partial sums reduce through
    // a tree of depth mergeWindows. The adder tree works on all P
    // partitions concurrently, so one level costs a window pass
    // spread over the partitions; the reduction itself cannot be
    // replicated away, so it lands on the fixed (unscalable) side.
    const reram::LatencyModel latency(hw);
    const double mergeNs = static_cast<double>(split.mergeWindows) *
                           static_cast<double>(w.microBatchSize) *
                           latency.windowLatencyNs() /
                           static_cast<double>(split.parts);

    core::StageCosts plan;
    plan.label = "gnn-infer[" + toString(spec.partition) + "] on " +
                 spec.dataset;
    for (uint32_t layer = 1; layer <= w.model.numLayers; ++layer) {
        const auto [fin, fout] = w.model.layerDims(layer);

        // SpMM aggregation. The balanced share of the adjacency
        // stream is replica-divisible; the straggler partition's
        // excess over the mean is not — every replica carries the
        // same partition structure, so each micro-batch barrier
        // waits out the same straggler tail. That excess plus the
        // merge tree land on the fixed side, which is exactly what
        // makes the strategy choice matter on a replica-rich chip.
        plan.stages.push_back(
            {pipeline::StageType::Aggregation, layer});
        const double spmmNs =
            latency.mvmStreamLatencyNs(w.microBatchSize, v, 1);
        const double stragglerNs = spmmNs *
                                   (split.imbalance - 1.0) /
                                   static_cast<double>(split.parts);
        plan.scalableTimesNs.push_back(spmmNs);
        plan.fixedTimesNs.push_back(mergeNs + stragglerNs);
        const uint64_t agXbars =
            mapping::crossbarsPerReplica(v, fout, hw);
        plan.crossbarsPerReplica.push_back(agXbars);
        plan.activationsPerMb.push_back(
            static_cast<uint64_t>(w.microBatchSize) * agXbars);
        plan.rowWritesPerMb.push_back(0);
        plan.bufferBytesPerMb.push_back(
            static_cast<uint64_t>(w.microBatchSize) * fout *
            (hw.crossbar.valueBits / 8));

        // Dense combination: the weight-matrix MVM, identical to the
        // training CO stage minus the weight updates.
        plan.stages.push_back(
            {pipeline::StageType::Combination, layer});
        plan.scalableTimesNs.push_back(
            latency.mvmStreamLatencyNs(w.microBatchSize, fin, 1));
        plan.fixedTimesNs.push_back(0.0);
        const uint64_t coXbars =
            mapping::crossbarsPerReplica(fin, fout, hw);
        plan.crossbarsPerReplica.push_back(coXbars);
        plan.activationsPerMb.push_back(
            static_cast<uint64_t>(w.microBatchSize) * coXbars);
        plan.rowWritesPerMb.push_back(0);
        plan.bufferBytesPerMb.push_back(
            static_cast<uint64_t>(w.microBatchSize) * fin *
            (hw.crossbar.valueBits / 8));
    }

    plan.totalMicroBatches = w.microBatchesPerEpoch() * w.epochs;
    plan.microBatchesPerEpoch = w.microBatchesPerEpoch();
    plan.maxUsefulReplicas = w.microBatchSize * 4;
    return plan;
}

} // namespace gopim::workload
