#include "core/systems.hh"

#include "alloc/basic.hh"
#include "alloc/greedy_heap.hh"
#include "common/logging.hh"

namespace gopim::core {

std::string
toString(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Serial:
        return "Serial";
      case SystemKind::SlimGnnLike:
        return "SlimGNN-like";
      case SystemKind::ReGraphX:
        return "ReGraphX";
      case SystemKind::ReFlip:
        return "ReFlip";
      case SystemKind::GoPimVanilla:
        return "GoPIM-Vanilla";
      case SystemKind::GoPim:
        return "GoPIM";
      case SystemKind::PlusPP:
        return "+PP";
      case SystemKind::PlusISU:
        return "+ISU";
      case SystemKind::Naive:
        return "Naive";
    }
    panic("unknown system kind");
}

const std::vector<SystemKind> &
allSystemKinds()
{
    static const std::vector<SystemKind> kinds = {
        SystemKind::Serial,    SystemKind::SlimGnnLike,
        SystemKind::ReGraphX,  SystemKind::ReFlip,
        SystemKind::GoPimVanilla, SystemKind::GoPim,
        SystemKind::PlusPP,    SystemKind::PlusISU,
        SystemKind::Naive};
    return kinds;
}

bool
systemFromString(const std::string &name, SystemKind *out)
{
    for (const SystemKind kind : allSystemKinds()) {
        if (toString(kind) == name) {
            *out = kind;
            return true;
        }
    }
    return false;
}

SystemKind
systemFromName(const std::string &name)
{
    SystemKind kind;
    if (systemFromString(name, &kind))
        return kind;
    std::string hint;
    for (const SystemKind known : allSystemKinds())
        hint += (hint.empty() ? "" : ", ") + toString(known);
    fatal("unknown system '", name, "' (try ", hint, ")");
}

SystemConfig
makeSystem(SystemKind kind)
{
    SystemConfig sys;
    sys.name = toString(kind);

    using mapping::VertexMapStrategy;
    switch (kind) {
      case SystemKind::Serial:
        sys.pipelineMode = pipeline::Regime::Serial;
        sys.allocator = nullptr;
        break;

      case SystemKind::SlimGnnLike:
        sys.pipelineMode = pipeline::Regime::IntraBatch;
        sys.allocator =
            std::make_shared<alloc::SpaceProportionalAllocator>();
        sys.policy.intraBatchPipeline = true;
        // Input subgraph pruning keeps 90% of edges (weight pruning is
        // excluded from SlimGNN-like per Section VII-A).
        sys.policy.edgeKeepFraction = 0.9;
        break;

      case SystemKind::ReGraphX:
        sys.pipelineMode = pipeline::Regime::IntraBatch;
        sys.allocator = std::make_shared<alloc::FixedRatioAllocator>(
            1.0, 2.0);
        sys.policy.intraBatchPipeline = true;
        break;

      case SystemKind::ReFlip:
        sys.pipelineMode = pipeline::Regime::IntraBatch;
        sys.allocator =
            std::make_shared<alloc::CombinationOnlyAllocator>();
        sys.policy.intraBatchPipeline = true;
        sys.policy.hybridReload = true;
        break;

      case SystemKind::GoPimVanilla:
        sys.pipelineMode = pipeline::Regime::IntraInterBatch;
        sys.allocator = std::make_shared<alloc::GreedyHeapAllocator>();
        sys.policy.intraBatchPipeline = true;
        sys.policy.interBatchPipeline = true;
        break;

      case SystemKind::GoPim:
        sys.pipelineMode = pipeline::Regime::IntraInterBatch;
        sys.allocator = std::make_shared<alloc::GreedyHeapAllocator>();
        sys.policy.intraBatchPipeline = true;
        sys.policy.interBatchPipeline = true;
        sys.policy.mapStrategy = VertexMapStrategy::Interleaved;
        sys.policy.selectiveUpdate = true;
        break;

      case SystemKind::PlusPP:
        sys.pipelineMode = pipeline::Regime::IntraInterBatch;
        sys.allocator = nullptr;
        sys.policy.intraBatchPipeline = true;
        sys.policy.interBatchPipeline = true;
        break;

      case SystemKind::PlusISU:
        sys.pipelineMode = pipeline::Regime::IntraInterBatch;
        sys.allocator = nullptr;
        sys.policy.intraBatchPipeline = true;
        sys.policy.interBatchPipeline = true;
        sys.policy.mapStrategy = VertexMapStrategy::Interleaved;
        sys.policy.selectiveUpdate = true;
        break;

      case SystemKind::Naive:
        sys.pipelineMode = pipeline::Regime::IntraInterBatch;
        sys.allocator = nullptr;
        sys.policy.intraBatchPipeline = true;
        break;
    }
    return sys;
}

std::vector<SystemKind>
figure13Systems()
{
    return {SystemKind::Serial,       SystemKind::SlimGnnLike,
            SystemKind::ReGraphX,     SystemKind::ReFlip,
            SystemKind::GoPimVanilla, SystemKind::GoPim};
}

std::vector<SystemKind>
figure14Systems()
{
    return {SystemKind::Serial, SystemKind::PlusPP, SystemKind::PlusISU,
            SystemKind::GoPim};
}

} // namespace gopim::core
