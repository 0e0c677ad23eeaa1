/**
 * @file
 * CNN inference family: convolutional layers lowered onto crossbar
 * MVMs via im2col and chained as pipeline stages in the SMART style
 * (each layer streams its output rows into the next layer's line
 * buffer, so the whole network pipelines across micro-batches).
 *
 * One conv layer of kernel k over inC input channels producing outC
 * output channels is an MVM with k*k*inC mapped rows and outC
 * columns, evaluated once per output position — im2col turns the
 * sliding window into outH*outW input vectors per image. The spec's
 * `dataset` names a CNN preset (a small catalog of layer chains)
 * rather than a graph.
 */

#ifndef GOPIM_WORKLOAD_CNN_INFER_HH
#define GOPIM_WORKLOAD_CNN_INFER_HH

#include "workload/family.hh"

namespace gopim::workload {

/** One convolutional layer of a preset. */
struct ConvLayer
{
    uint32_t outChannels = 0;
    uint32_t kernel = 3;
    uint32_t stride = 1;
};

/** A named CNN inference preset: input shape + conv chain. */
struct CnnPreset
{
    const char *name;
    const char *summary;
    uint32_t inChannels;
    uint32_t inHeight;
    uint32_t inWidth;
    /** Images per inference pass (one "epoch"). */
    uint32_t numImages;
    std::vector<ConvLayer> layers;
};

/** All registered CNN presets (the cnn-infer dataset catalog). */
const std::vector<CnnPreset> &cnnPresetRegistry();

/** Lookup by name; nullptr on unknown names. */
const CnnPreset *findCnnPreset(const std::string &name);

/** Comma-separated preset names for hints and flag help. */
std::string cnnPresetNameList();

/** Default preset substituted when --workload=cnn-infer has no
 *  explicit dataset. */
const char *defaultCnnPreset();

/** The cnn-infer family (registered in familyRegistry). */
class CnnInferFamily final : public WorkloadFamily
{
  public:
    FamilyKind kind() const override { return FamilyKind::CnnInfer; }
    std::string validateSpec(const WorkloadSpec &spec) const override;
    core::StageCosts plan(const WorkloadSpec &spec,
                          const reram::AcceleratorConfig &hw) const override;
};

} // namespace gopim::workload

#endif // GOPIM_WORKLOAD_CNN_INFER_HH
