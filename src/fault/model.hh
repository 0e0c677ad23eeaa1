/**
 * @file
 * ReRAM device fault models: stuck-at-ON/OFF cell maps (Bernoulli
 * per-cell), time-dependent conductance drift, and the configuration
 * record that selects a repair strategy. Long-running GCN *training*
 * rewrites weight cells every epoch, so device reliability is a
 * first-class axis here: the fault subsystem turns fault rates and
 * endurance wear into (a) timing overheads through the repair
 * policies (fault/repair.hh) and (b) accuracy effects through the
 * functional trainer's fault-aware crossbar image.
 */

#ifndef GOPIM_FAULT_MODEL_HH
#define GOPIM_FAULT_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/matrix.hh"

namespace gopim::fault {

/** Device-level fault parameters (all rates are per cell). */
struct FaultParams
{
    /** Bernoulli rate of cells stuck at maximum conductance. */
    double stuckOnRate = 0.0;
    /** Bernoulli rate of cells stuck at minimum conductance. */
    double stuckOffRate = 0.0;
    /**
     * Relative conductance lost per epoch since the last re-program
     * (retention drift toward G_min); repaired only by refresh.
     */
    double driftPerEpoch = 0.0;
    /** Seed for fault-map placement (independent of the sim seed). */
    uint64_t seed = 17;

    /** Any non-zero fault mechanism configured? */
    bool any() const
    {
        return stuckOnRate > 0.0 || stuckOffRate > 0.0 ||
               driftPerEpoch > 0.0;
    }
};

/** Repair strategy selector (policies live in fault/repair.hh). */
enum class RepairKind
{
    None,         ///< faults land unmitigated
    SpareRows,    ///< remap faulty/worn rows onto provisioned spares
    EccDuplicate, ///< duplicate columns; a fault must hit both copies
    Refresh,      ///< periodically re-program (fixes drift, not stuck)
};

std::string toString(RepairKind kind);

/** Non-fatal parse of a repairNameList() spelling or a long form. */
bool tryRepairKindFromString(const std::string &name, RepairKind *out);

/** The short spellings, comma-separated ("none, spare, ecc, refresh"). */
std::string repairNameList();

/** Parse or fatal() — the CLI entry-point form. */
RepairKind repairKindFromString(const std::string &name);

/** All repair kinds in sweep order. */
const std::vector<RepairKind> &allRepairKinds();

/**
 * Complete fault/repair configuration carried by core::SystemConfig
 * and the serve request schema. Default-constructed it is disabled
 * and every integration point takes the exact pre-fault code path —
 * the zero-fault bit-identity tests rely on that.
 */
struct FaultConfig
{
    FaultParams params;
    RepairKind repair = RepairKind::None;
    /** Fraction of rows provisioned as spares (SpareRows). */
    double spareRowFraction = 0.05;
    /** Micro-batches between re-program refreshes (Refresh, timing). */
    uint32_t refreshPeriodMb = 512;
    /** Epochs between refreshes seen by the trainer (Refresh). */
    uint32_t refreshPeriodEpochs = 5;

    /** Anything for the integration layers to do? */
    bool enabled() const
    {
        return params.any() || repair != RepairKind::None;
    }
};

/**
 * Per-cell stuck-fault map for one crossbar-mapped matrix, placed by
 * a Bernoulli draw per cell from an explicit seed (deterministic and
 * independent of traversal order elsewhere). Used by the functional
 * trainer to corrupt the programmed weight image and by tests.
 */
class CellFaultMap
{
  public:
    enum class Cell : uint8_t
    {
        Ok = 0,
        StuckOff = 1,
        StuckOn = 2,
    };

    CellFaultMap(size_t rows, size_t cols, const FaultParams &params,
                 uint64_t seed);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    Cell at(size_t r, size_t c) const { return cells_[r * cols_ + c]; }

    /** Fraction of cells carrying any stuck fault. */
    double faultFraction() const;

    /** Rows containing at least one stuck cell. */
    size_t faultyRowCount() const;

    /**
     * Overwrite a programmed matrix the way the stuck cells would
     * read back: stuck-OFF cells read G_min (0), stuck-ON cells read
     * the maximum programmed magnitude (the positive rail of the
     * differential pair).
     */
    void apply(tensor::Matrix &programmed) const;

    /**
     * Spare-row repair: clear the faults of up to
     * floor(fraction * rows) rows, worst (most faulty) rows first,
     * ties toward the lower row index. Rows without faults consume
     * no budget. Returns the number of rows actually remapped.
     */
    size_t repairRows(double fraction);

    /**
     * ECC-style duplicate-and-compare masking: a fault survives only
     * where `other` holds the same fault in the same cell (both
     * copies corrupted identically — otherwise the comparator picks
     * the healthy copy).
     */
    CellFaultMap maskedWith(const CellFaultMap &other) const;

  private:
    CellFaultMap(size_t rows, size_t cols);

    size_t rows_;
    size_t cols_;
    std::vector<Cell> cells_;
};

/**
 * Deterministic per-row-group fault severity: each physical row
 * group's fraction of faulty cells, drawn uniformly in
 * [0, 2 * cellFaultRate) so the mean matches the cell rate but
 * groups differ — which is what makes fault-aware remapping
 * (mapping::remapGroupsByHealth) worth doing.
 */
std::vector<double> groupFaultScores(uint32_t numGroups,
                                     double cellFaultRate,
                                     uint64_t seed);

/**
 * Write-traffic-weighted mean fault severity: the expected fault
 * rate a row write lands on, given per-group write loads and
 * per-group fault scores. Lower is better; fault-aware remapping
 * exists to reduce exactly this number.
 */
double writeExposure(const std::vector<double> &groupWrites,
                     const std::vector<double> &groupFaultScores);

} // namespace gopim::fault

#endif // GOPIM_FAULT_MODEL_HH
