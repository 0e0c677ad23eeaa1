/**
 * @file
 * GNN inference family: serving-style forward passes where each layer
 * is a sparse aggregation (SpMM over the graph CSR) followed by a
 * dense combination MVM, with a selectable SpMM partitioning strategy
 * in the PyGim style (row-split / col-split / nnz-balanced).
 *
 * The partitioning strategy does not change what is computed — it
 * changes how evenly the adjacency nonzeros spread over the P
 * crossbar partitions and what merge work the split leaves behind:
 *
 *  - row-split      contiguous vertex ranges. No cross-partition
 *                   merge, but the straggler partition carries the
 *                   degree skew of its range: its excess work over
 *                   the mean is a per-micro-batch bubble replication
 *                   cannot hide (every replica has the same split).
 *  - col-split      edges bucketed by neighbor-id range. Every
 *                   output row is scattered over partitions and
 *                   needs a partial-sum reduction tree: a fixed
 *                   merge cost of ceil(log2 P) P-way-parallel window
 *                   levels per micro-batch.
 *  - nnz-balanced   LPT assignment of rows (descending degree) to
 *                   the least-loaded partition. Near-perfect balance
 *                   at the price of an indirection gather, modeled
 *                   as one merge level per micro-batch.
 *
 * The imbalance factors are measured on a materialized Chung-Lu
 * instance of the dataset (vertex count capped, degree distribution
 * preserved) and applied to the full-size analytic SpMM time, so
 * plans stay cheap to build and deterministic in the spec seed.
 */

#ifndef GOPIM_WORKLOAD_GNN_INFER_HH
#define GOPIM_WORKLOAD_GNN_INFER_HH

#include "graph/graph.hh"
#include "workload/family.hh"

namespace gopim::workload {

/** Measured split quality of one partitioning of one graph. */
struct PartitionProfile
{
    Partitioning strategy = Partitioning::RowSplit;
    uint32_t parts = 1;
    /** max partition nnz / mean partition nnz (>= 1). */
    double imbalance = 1.0;
    /** Merge window passes per micro-batch left after the split. */
    uint32_t mergeWindows = 0;
};

/**
 * Partition `g`'s nonzeros over `parts` partitions with `strategy`
 * and measure the resulting balance. Deterministic in its inputs.
 */
PartitionProfile profilePartitioning(const graph::Graph &g,
                                     Partitioning strategy,
                                     uint32_t parts);

/** The gnn-infer family (registered in familyRegistry). */
class GnnInferFamily final : public WorkloadFamily
{
  public:
    FamilyKind kind() const override { return FamilyKind::GnnInfer; }
    std::string validateSpec(const WorkloadSpec &spec) const override;
    core::StageCosts plan(const WorkloadSpec &spec,
                          const reram::AcceleratorConfig &hw) const override;
};

} // namespace gopim::workload

#endif // GOPIM_WORKLOAD_GNN_INFER_HH
