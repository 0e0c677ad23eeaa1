#include "workload/family.hh"

#include <limits>

#include "common/logging.hh"
#include "workload/cnn_infer.hh"
#include "workload/gcn_train.hh"
#include "workload/gnn_infer.hh"

namespace gopim::workload {

const std::vector<FamilyInfo> &
familyRegistry()
{
    static const std::vector<FamilyInfo> registry = {
        {FamilyKind::GcnTrain, "gcn-train", "train",
         "GCN training pipeline (CO/AG/LC/GC stages, the paper's "
         "workload)"},
        {FamilyKind::GnnInfer, "gnn-infer", "gnn",
         "GNN inference: SpMM aggregation + dense combination with "
         "row/col/nnz partitioning"},
        {FamilyKind::CnnInfer, "cnn-infer", "cnn",
         "CNN inference: conv-im2col layers chained as crossbar MVM "
         "stages"},
    };
    return registry;
}

std::string
familyNameList()
{
    std::string out;
    for (const auto &info : familyRegistry()) {
        if (!out.empty())
            out += ", ";
        out += info.canonical;
    }
    return out;
}

std::string
familyFlagHelp()
{
    std::string help = "workload family:";
    for (const auto &info : familyRegistry()) {
        help += "\n  ";
        help += info.canonical;
        help += " (";
        help += info.alias;
        help += "): ";
        help += info.summary;
    }
    return help;
}

bool
tryFamilyFromString(const std::string &name, FamilyKind *out)
{
    for (const auto &info : familyRegistry()) {
        if (name == info.canonical || name == info.alias) {
            *out = info.kind;
            return true;
        }
    }
    return false;
}

FamilyKind
familyFromString(const std::string &name)
{
    FamilyKind kind;
    if (!tryFamilyFromString(name, &kind))
        fatal("unknown workload family '", name, "' (expected one of ",
              familyNameList(), ")");
    return kind;
}

std::string
toString(FamilyKind kind)
{
    for (const auto &info : familyRegistry())
        if (info.kind == kind)
            return info.canonical;
    panic("unregistered workload family kind");
}

const std::vector<PartitionInfo> &
partitionRegistry()
{
    static const std::vector<PartitionInfo> registry = {
        {Partitioning::RowSplit, "row-split", "row",
         "contiguous vertex ranges; zero merge cost, bound by degree "
         "skew"},
        {Partitioning::ColSplit, "col-split", "col",
         "neighbor-id ranges; near-balanced plus a partial-sum merge "
         "tree"},
        {Partitioning::NnzBalanced, "nnz-balanced", "nnz",
         "LPT over row nnz; balanced parts plus indirection "
         "bookkeeping"},
    };
    return registry;
}

std::string
partitionNameList()
{
    std::string out;
    for (const auto &info : partitionRegistry()) {
        if (!out.empty())
            out += ", ";
        out += info.canonical;
    }
    return out;
}

std::string
partitionFlagHelp()
{
    std::string help = "SpMM partitioning for --workload=gnn-infer:";
    for (const auto &info : partitionRegistry()) {
        help += "\n  ";
        help += info.canonical;
        help += " (";
        help += info.alias;
        help += "): ";
        help += info.summary;
    }
    return help;
}

bool
tryPartitioningFromString(const std::string &name, Partitioning *out)
{
    for (const auto &info : partitionRegistry()) {
        if (name == info.canonical || name == info.alias) {
            *out = info.kind;
            return true;
        }
    }
    return false;
}

std::string
toString(Partitioning strategy)
{
    for (const auto &info : partitionRegistry())
        if (info.kind == strategy)
            return info.canonical;
    panic("unregistered partitioning strategy");
}

const WorkloadFamily &
familyFor(FamilyKind kind)
{
    static const GcnTrainFamily gcnTrain;
    static const GnnInferFamily gnnInfer;
    static const CnnInferFamily cnnInfer;
    switch (kind) {
    case FamilyKind::GcnTrain:
        return gcnTrain;
    case FamilyKind::GnnInfer:
        return gnnInfer;
    case FamilyKind::CnnInfer:
        return cnnInfer;
    }
    panic("unregistered workload family kind");
}

std::string
validateEpochs(uint64_t microBatchesPerEpoch, uint32_t epochs)
{
    constexpr uint64_t kMaxTotal = std::numeric_limits<uint32_t>::max();
    const uint64_t maxEpochs =
        microBatchesPerEpoch == 0 ? kMaxTotal
                                  : kMaxTotal / microBatchesPerEpoch;
    if (epochs <= maxEpochs)
        return "";
    return "epochs " + std::to_string(epochs) + " x " +
           std::to_string(microBatchesPerEpoch) +
           " micro-batches per epoch exceeds " +
           std::to_string(kMaxTotal) +
           " micro-batches in total (epochs must be at most " +
           std::to_string(maxEpochs) + ")";
}

} // namespace gopim::workload
