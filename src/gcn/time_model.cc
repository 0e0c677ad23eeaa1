#include "gcn/time_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "mapping/tiling.hh"

namespace gopim::gcn {

MappingArtifacts
MappingArtifacts::build(const VertexProfile &profile,
                        const ExecutionPolicy &policy,
                        const graph::DatasetSpec &dataset,
                        uint32_t rowsPerGroup)
{
    const auto &degrees = profile.degrees;
    const double theta = policy.resolvedTheta(dataset);
    const size_t keep = mapping::importantCount(degrees.size(), theta);
    const bool interleaved =
        policy.mapStrategy == mapping::VertexMapStrategy::Interleaved;
    const bool partial = keep > 0 && keep < degrees.size();

    // Rank at most once: the assignment and the important set share
    // the ranking, and index mapping with all-or-nothing updates needs
    // none.
    std::vector<uint32_t> order;
    if (interleaved || partial)
        order = graph::orderByDegreeDesc(degrees);

    MappingArtifacts out;
    out.assignment =
        interleaved
            ? mapping::interleaveRanked(order, rowsPerGroup)
            : mapping::mapVertices(degrees, rowsPerGroup,
                                   policy.mapStrategy);
    out.important = partial ? mapping::selectImportantRanked(order, keep)
                            : mapping::selectImportant(degrees, theta);

    mapping::SelectiveUpdateParams params;
    params.theta = theta;
    params.coldPeriod = policy.coldPeriod;
    out.epochUpdateSlots = mapping::epochUpdateSlots(
        out.assignment, out.important, params);
    out.updateFraction =
        theta + (1.0 - theta) / static_cast<double>(policy.coldPeriod);
    return out;
}

MappingArtifacts
MappingArtifacts::fullUpdateApprox(uint64_t numVertices,
                                   uint32_t rowsPerGroup)
{
    GOPIM_ASSERT(numVertices > 0 && rowsPerGroup > 0,
                 "fullUpdateApprox: empty problem");
    MappingArtifacts out;
    out.assignment.rowsPerGroup = rowsPerGroup;
    out.assignment.numGroups =
        static_cast<uint32_t>(ceilDiv(numVertices, rowsPerGroup));
    out.epochUpdateSlots = static_cast<double>(
        std::min<uint64_t>(numVertices, rowsPerGroup));
    out.updateFraction = 1.0;
    return out;
}

StageTimeModel::StageTimeModel(const reram::AcceleratorConfig &cfg,
                               TimeModelParams params)
    : latency_(cfg), params_(params)
{
}

double
StageTimeModel::nocReductionNs(uint64_t crossbarsPerReplica,
                               uint32_t outputWidth) const
{
    if (!params_.modelNoc)
        return 0.0;
    const auto &cfg = latency_.config();
    const uint64_t crossbarsPerTile =
        static_cast<uint64_t>(cfg.pe.crossbarsPerPe) *
        cfg.tile.pesPerTile;
    const uint64_t tiles =
        ceilDiv(crossbarsPerReplica, crossbarsPerTile);
    if (tiles <= 1)
        return 0.0;
    const noc::NocModel model(noc::MeshTopology::forTileCount(tiles),
                              params_.nocParams);
    const uint64_t bytes = static_cast<uint64_t>(outputWidth) *
                           (cfg.crossbar.valueBits / 8);
    return model.reductionLatencyNs(tiles, bytes);
}

StageCost
StageTimeModel::combinationCost(const Workload &w, uint32_t layer) const
{
    const auto [fin, fout] = w.model.layerDims(layer);
    const auto &cfg = latency_.config();

    StageCost cost;
    cost.crossbarsPerReplica =
        mapping::crossbarsPerReplica(fin, fout, cfg);
    // Each micro-batch vertex streams through the weight matrix once.
    cost.scalableNs =
        latency_.mvmStreamLatencyNs(w.microBatchSize, fin, 1) +
        static_cast<double>(w.microBatchSize) *
            nocReductionNs(cost.crossbarsPerReplica, fout);
    // One activation = one input vector's full bit-serial pass through
    // one crossbar (Table II powers cover the whole pass).
    cost.activationsPerMb = static_cast<uint64_t>(w.microBatchSize) *
                            cost.crossbarsPerReplica;
    cost.bufferBytesPerMb = static_cast<uint64_t>(w.microBatchSize) *
                            fin * (cfg.crossbar.valueBits / 8);
    return cost;
}

StageCost
StageTimeModel::aggregationCost(const Workload &w,
                                const ExecutionPolicy &policy,
                                const MappingArtifacts &artifacts,
                                uint32_t layer) const
{
    const auto [fin, fout] = w.model.layerDims(layer);
    (void)fin;
    const auto &cfg = latency_.config();
    const uint64_t v = w.dataset.numVertices;
    const uint32_t mbPerEpoch = w.microBatchesPerEpoch();

    StageCost cost;
    cost.crossbarsPerReplica = mapping::crossbarsPerReplica(v, fout, cfg);

    // Adjacency rows are dense-streamed through the feature map in
    // serial row windows; SlimGNN-like edge pruning skips the windows
    // whose edges were removed.
    cost.scalableNs =
        latency_.mvmStreamLatencyNs(w.microBatchSize, v, 1) *
        policy.edgeKeepFraction;

    // Inter-tile partial-sum reduction per input (opt-in).
    cost.scalableNs += static_cast<double>(w.microBatchSize) *
                       nocReductionNs(cost.crossbarsPerReplica, fout);

    // ReFlip's hybrid execution processes low-degree vertices
    // column-major, activating only the row windows that contain
    // neighbors: a sparse graph touches far fewer windows per input
    // (this is ReFlip's strength on sparse graphs, Section VII-B).
    if (policy.hybridReload) {
        const double windows = static_cast<double>(
            ceilDiv(v, cfg.windowRows()));
        const double activated = expectedDistinctBuckets(
            w.dataset.avgDegree, windows);
        cost.scalableNs *= activated / windows;
    }

    // Vertex updating: the per-epoch write bound of the most-loaded
    // row group, amortized over the epoch's micro-batches. Replicas
    // do not reduce this (each replica receives the same writes).
    cost.fixedNs = artifacts.epochUpdateSlots *
                   latency_.rowWriteLatencyNs() /
                   static_cast<double>(mbPerEpoch);

    const auto fp = mapping::tileMatrix(v, fout, cfg);
    const double updatedVerticesPerMb =
        static_cast<double>(v) * artifacts.updateFraction /
        static_cast<double>(mbPerEpoch);
    cost.rowWritesPerMb = static_cast<uint64_t>(
        updatedVerticesPerMb * static_cast<double>(fp.colSegments));

    // ReFlip hybrid execution repeatedly reloads the source vertices
    // of column-major (low-degree) vertices: edge-proportional extra
    // writes, spread over the row groups but streamed through the
    // shared column-major input path, so every segment of a reloaded
    // row serializes (unlike the row-major update broadcast above).
    if (policy.hybridReload) {
        const double reloads =
            2.0 * static_cast<double>(w.dataset.numEdges) *
            params_.reflipLowDegreeShare;
        const double perGroup =
            reloads /
            static_cast<double>(artifacts.assignment.numGroups);
        cost.fixedNs += perGroup * latency_.rowWriteLatencyNs() /
                        static_cast<double>(mbPerEpoch);
        cost.rowWritesPerMb += static_cast<uint64_t>(
            reloads * static_cast<double>(fp.colSegments) /
            static_cast<double>(mbPerEpoch));
    }

    cost.activationsPerMb = static_cast<uint64_t>(
        static_cast<double>(w.microBatchSize) *
        static_cast<double>(cost.crossbarsPerReplica) *
        policy.edgeKeepFraction);
    cost.bufferBytesPerMb = static_cast<uint64_t>(w.microBatchSize) *
                            v / 8; // bit-packed adjacency rows
    return cost;
}

StageCost
StageTimeModel::lossCost(const Workload &w, uint32_t layer) const
{
    const auto [fin, fout] = w.model.layerDims(layer);
    const auto &cfg = latency_.config();

    // LC propagates errors through the transposed weights; dataflow
    // matches CO (paper Section IV-B).
    StageCost cost;
    cost.crossbarsPerReplica =
        mapping::crossbarsPerReplica(fout, fin, cfg);
    cost.scalableNs =
        latency_.mvmStreamLatencyNs(w.microBatchSize, fout, 1) +
        static_cast<double>(w.microBatchSize) *
            nocReductionNs(cost.crossbarsPerReplica, fin);
    cost.activationsPerMb = static_cast<uint64_t>(w.microBatchSize) *
                            cost.crossbarsPerReplica;
    cost.bufferBytesPerMb = static_cast<uint64_t>(w.microBatchSize) *
                            fout * (cfg.crossbar.valueBits / 8);
    return cost;
}

StageCost
StageTimeModel::gradientCost(const Workload &w,
                             const MappingArtifacts &artifacts,
                             uint32_t layer) const
{
    (void)artifacts;
    const auto [fin, fout] = w.model.layerDims(layer);
    const auto &cfg = latency_.config();
    const uint64_t v = w.dataset.numVertices;
    const uint32_t mbPerEpoch = w.microBatchesPerEpoch();

    // GC computes weight gradients in the SRAM weight manager and
    // rewrites the affected crossbar regions (weights + features), so
    // its crossbar footprint matches the feature map (Table VI).
    StageCost cost;
    cost.crossbarsPerReplica = mapping::crossbarsPerReplica(v, fout, cfg);

    const double macs = static_cast<double>(w.microBatchSize) * fin *
                        fout;
    cost.scalableNs = macs / params_.sramMacsPerNs;

    // Weight rewrite once per batch, amortized per micro-batch. The
    // weight rows spread over ceil(F_in / 64) row groups; writes are
    // serial within a group, parallel across groups.
    const double weightRowsPerGroup = static_cast<double>(
        std::min<uint64_t>(fin, cfg.crossbar.rows));
    cost.fixedNs = weightRowsPerGroup * latency_.rowWriteLatencyNs() /
                   static_cast<double>(mbPerEpoch);
    cost.rowWritesPerMb = ceilDiv(
        static_cast<uint64_t>(fin) * fout * cfg.crossbar.slicesPerValue(),
        cfg.crossbar.cols) /
        std::max<uint32_t>(mbPerEpoch, 1);
    cost.bufferBytesPerMb = static_cast<uint64_t>(w.microBatchSize) *
                            (fin + fout) *
                            (cfg.crossbar.valueBits / 8);
    return cost;
}

StageCost
StageTimeModel::cost(const Workload &workload,
                     const ExecutionPolicy &policy,
                     const MappingArtifacts &artifacts,
                     const pipeline::Stage &stage) const
{
    switch (stage.type) {
      case pipeline::StageType::Combination:
        return combinationCost(workload, stage.layer);
      case pipeline::StageType::Aggregation:
        return aggregationCost(workload, policy, artifacts, stage.layer);
      case pipeline::StageType::LossCompute:
        return lossCost(workload, stage.layer);
      case pipeline::StageType::GradientCompute:
        return gradientCost(workload, artifacts, stage.layer);
    }
    panic("unknown stage type");
}

std::vector<StageCost>
StageTimeModel::allCosts(const Workload &workload,
                         const ExecutionPolicy &policy,
                         const MappingArtifacts &artifacts) const
{
    const auto stages =
        pipeline::buildTrainingStages(workload.model.numLayers);
    std::vector<StageCost> costs;
    costs.reserve(stages.size());
    for (const auto &stage : stages)
        costs.push_back(cost(workload, policy, artifacts, stage));
    return costs;
}

} // namespace gopim::gcn
