#include "workload/cnn_infer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "mapping/tiling.hh"
#include "reram/latency.hh"

namespace gopim::workload {

const std::vector<CnnPreset> &
cnnPresetRegistry()
{
    static const std::vector<CnnPreset> registry = {
        {"mnist", "LeNet-scale chain on 1x28x28 digits", 1, 28, 28,
         10000,
         {{8, 3, 1}, {16, 3, 2}, {32, 3, 2}}},
        {"cifar", "VGG-scale chain on 3x32x32 images", 3, 32, 32,
         10000,
         {{32, 3, 1}, {64, 3, 2}, {128, 3, 2}, {128, 3, 2}}},
        {"tiny-imagenet", "deeper chain on 3x64x64 images", 3, 64, 64,
         10000,
         {{64, 3, 1},
          {128, 3, 2},
          {256, 3, 2},
          {512, 3, 2},
          {512, 3, 2}}},
    };
    return registry;
}

const CnnPreset *
findCnnPreset(const std::string &name)
{
    for (const auto &preset : cnnPresetRegistry())
        if (name == preset.name)
            return &preset;
    return nullptr;
}

std::string
cnnPresetNameList()
{
    std::string out;
    for (const auto &preset : cnnPresetRegistry()) {
        if (!out.empty())
            out += ", ";
        out += preset.name;
    }
    return out;
}

const char *
defaultCnnPreset()
{
    return "cifar";
}

std::string
CnnInferFamily::validateSpec(const WorkloadSpec &spec) const
{
    if (findCnnPreset(spec.dataset) == nullptr)
        return "unknown CNN preset '" + spec.dataset +
               "' (cnn-infer presets: " + cnnPresetNameList() + ")";
    if (spec.microBatchSize == 0 || spec.microBatchSize > 4096)
        return "micro-batch size must lie in [1, 4096]";
    if (spec.epochs == 0)
        return "need at least one inference pass (epochs >= 1)";
    return "";
}

core::StageCosts
CnnInferFamily::plan(const WorkloadSpec &spec,
                     const reram::AcceleratorConfig &hw) const
{
    const std::string problem = validateSpec(spec);
    GOPIM_ASSERT(problem.empty(), "invalid cnn-infer spec");
    const CnnPreset &preset = *findCnnPreset(spec.dataset);

    const reram::LatencyModel latency(hw);
    const uint64_t mb = spec.microBatchSize;

    core::StageCosts plan;
    plan.label = "cnn-infer[" + std::string(preset.name) + "]";
    uint32_t inC = preset.inChannels;
    uint32_t height = preset.inHeight;
    uint32_t width = preset.inWidth;
    uint32_t layerIdx = 0;
    for (const ConvLayer &layer : preset.layers) {
        ++layerIdx;
        const uint32_t outH =
            std::max(1u, (height - layer.kernel) / layer.stride + 1);
        const uint32_t outW =
            std::max(1u, (width - layer.kernel) / layer.stride + 1);
        // im2col: one MVM input vector per output position per image.
        const uint64_t mappedRows = static_cast<uint64_t>(
            layer.kernel) * layer.kernel * inC;
        const uint64_t inputsPerMb =
            mb * static_cast<uint64_t>(outH) * outW;

        plan.stages.push_back(
            {pipeline::StageType::Combination, layerIdx});
        plan.scalableTimesNs.push_back(
            latency.mvmStreamLatencyNs(inputsPerMb, mappedRows, 1));
        // SMART-style chaining: before a stage produces anything, the
        // previous stage must fill kernel-1 rows of its line buffer.
        // That priming is pipeline-fixed — replicas all wait for it.
        plan.fixedTimesNs.push_back(
            static_cast<double>(layer.kernel - 1) *
            latency.windowLatencyNs());
        const uint64_t xbars = mapping::crossbarsPerReplica(
            mappedRows, layer.outChannels, hw);
        plan.crossbarsPerReplica.push_back(xbars);
        plan.activationsPerMb.push_back(inputsPerMb * xbars);
        plan.rowWritesPerMb.push_back(0);
        plan.bufferBytesPerMb.push_back(
            mb * static_cast<uint64_t>(inC) * height * width *
            (hw.crossbar.valueBits / 8));

        inC = layer.outChannels;
        height = outH;
        width = outW;
    }

    plan.microBatchesPerEpoch =
        static_cast<uint32_t>(ceilDiv(preset.numImages, mb));
    plan.totalMicroBatches = plan.microBatchesPerEpoch * spec.epochs;
    plan.maxUsefulReplicas = spec.microBatchSize * 4;
    return plan;
}

} // namespace gopim::workload
