/**
 * @file
 * Workload families: the front-ends that turn a workload description
 * into a scheduling problem on the PIM substrate (ROADMAP item 3).
 *
 * A WorkloadFamily compiles a WorkloadSpec into core::StageCosts —
 * stage descriptors, per-micro-batch scalable/fixed times, crossbar
 * footprints, and energy event counts — which the runner
 * (workload/runner.hh) sends through the core run path (replica
 * allocation, the scheduling engines with ISA lowering, energy) every
 * workload shares. Three concrete families are registered:
 *
 *  - gcn-train   the paper's GCN-training pipeline, re-expressed as
 *                a family (workload/gcn_train.hh);
 *  - gnn-infer   PyGim-style GNN serving: sparse aggregation (SpMM)
 *                + dense combination with selectable row-split /
 *                col-split / nnz-balanced partitioning, driven by
 *                the graph CSR structures (workload/gnn_infer.hh);
 *  - cnn-infer   SMART-style CNN inference: conv-im2col layers
 *                chained as pipeline stages of crossbar MVMs
 *                (workload/cnn_infer.hh).
 *
 * The registry mirrors the engine registry (sim/context.hh): one
 * table is the single source of truth for canonical names, aliases,
 * and summaries, from which --workload flag help, parse hints, and
 * serve-layer error messages all derive.
 */

#ifndef GOPIM_WORKLOAD_FAMILY_HH
#define GOPIM_WORKLOAD_FAMILY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/accelerator.hh"
#include "reram/config.hh"

namespace gopim::workload {

/** Workload family selector. */
enum class FamilyKind : uint8_t
{
    GcnTrain, ///< GCN training pipeline (the paper's workload)
    GnnInfer, ///< SpMM + dense combination GNN inference (PyGim)
    CnnInfer, ///< conv-im2col CNN inference (SMART-style chaining)
};

/**
 * One registered workload family: the single source of truth for its
 * spellings and one-line summary (the engine-registry pattern).
 */
struct FamilyInfo
{
    FamilyKind kind;
    /** Canonical name ("gcn-train"). */
    const char *canonical;
    /** Short spelling accepted by --workload and serve requests. */
    const char *alias;
    /** One-line description for flag help and --list-workloads. */
    const char *summary;
};

/** All registered families, in FamilyKind declaration order. */
const std::vector<FamilyInfo> &familyRegistry();

/** Comma-separated canonical-name list for hints. */
std::string familyNameList();

/** Multi-line --workload help text derived from the registry. */
std::string familyFlagHelp();

/** Parse an alias or canonical name; fatal() otherwise. */
FamilyKind familyFromString(const std::string &name);

/** Non-fatal parse; returns false on unknown names. */
bool tryFamilyFromString(const std::string &name, FamilyKind *out);

std::string toString(FamilyKind kind);

/** SpMM partitioning strategy of the GNN-inference family (PyGim). */
enum class Partitioning : uint8_t
{
    RowSplit,    ///< contiguous vertex ranges; no merge, skew-bound
    ColSplit,    ///< neighbor-id ranges; balanced-ish + merge step
    NnzBalanced, ///< LPT over row nnz; balanced + bookkeeping cost
};

/** One registered partitioning strategy (same table pattern). */
struct PartitionInfo
{
    Partitioning kind;
    const char *canonical;
    const char *alias;
    const char *summary;
};

/** All partitioning strategies, in declaration order. */
const std::vector<PartitionInfo> &partitionRegistry();

/** Comma-separated canonical-name list for hints. */
std::string partitionNameList();

/** Multi-line --partition help text derived from the registry. */
std::string partitionFlagHelp();

/** Non-fatal parse; returns false on unknown names. */
bool tryPartitioningFromString(const std::string &name,
                               Partitioning *out);

std::string toString(Partitioning strategy);

/**
 * One workload instance, independent of system/allocator choice.
 * `dataset` names a graph-catalog entry for the GNN families and a
 * CNN input preset (workload/cnn_infer.hh) for cnn-infer. `epochs`
 * counts training epochs for gcn-train and full inference passes
 * (request batches) for the inference families.
 */
struct WorkloadSpec
{
    FamilyKind family = FamilyKind::GcnTrain;
    std::string dataset = "ddi";
    /** SpMM partitioning (gnn-infer only; ignored elsewhere). */
    Partitioning partition = Partitioning::RowSplit;
    uint32_t microBatchSize = 64;
    uint32_t epochs = 1;
    uint64_t seed = 1;
};

/**
 * The epochs check every family's validateSpec shares: "" when
 * `epochs` passes of `microBatchesPerEpoch` micro-batches fit the
 * 32-bit total micro-batch count a schedule carries, else a
 * diagnostic naming `epochs` and its largest valid value.
 */
std::string validateEpochs(uint64_t microBatchesPerEpoch,
                           uint32_t epochs);

/**
 * A workload family: compiles specs into stage costs. Implementations
 * are stateless and shared (familyFor), so costs can be built
 * concurrently from grid workers.
 */
class WorkloadFamily
{
  public:
    virtual ~WorkloadFamily() = default;

    virtual FamilyKind kind() const = 0;

    /** Canonical registry name ("gnn-infer"). */
    std::string name() const { return toString(kind()); }

    /**
     * Check the spec against this family's catalog (dataset or CNN
     * preset names, micro-batch bounds). "" when runnable, else a
     * diagnostic suitable for a CLI fatal() or a serve request error.
     */
    virtual std::string validateSpec(const WorkloadSpec &spec) const = 0;

    /**
     * Compile the spec into stage costs on `hw` (core::allocatePlan
     * validates them). Deterministic: equal (spec, hw) pairs produce
     * identical costs, which is what makes family runs cacheable and
     * replayable. Panics on a spec that validateSpec rejects.
     */
    virtual core::StageCosts
    plan(const WorkloadSpec &spec,
         const reram::AcceleratorConfig &hw) const = 0;
};

/** Shared immutable family instance for a kind (never null). */
const WorkloadFamily &familyFor(FamilyKind kind);

} // namespace gopim::workload

#endif // GOPIM_WORKLOAD_FAMILY_HH
