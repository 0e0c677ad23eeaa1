#include "fault/model.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"

namespace gopim::fault {

std::string
toString(RepairKind kind)
{
    switch (kind) {
      case RepairKind::None:
        return "none";
      case RepairKind::SpareRows:
        return "spare-rows";
      case RepairKind::EccDuplicate:
        return "ecc-dup";
      case RepairKind::Refresh:
        return "refresh";
    }
    panic("unknown repair kind");
}

namespace {

/** Short spellings in allRepairKinds() order: the one hint list. */
constexpr const char *kRepairAliases[] = {"none", "spare", "ecc",
                                          "refresh"};

} // namespace

bool
tryRepairKindFromString(const std::string &name, RepairKind *out)
{
    for (size_t i = 0; i < allRepairKinds().size(); ++i) {
        const RepairKind kind = allRepairKinds()[i];
        if (name == kRepairAliases[i] || name == toString(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

std::string
repairNameList()
{
    std::string out;
    for (const char *alias : kRepairAliases)
        out += (out.empty() ? "" : ", ") + std::string(alias);
    return out;
}

RepairKind
repairKindFromString(const std::string &name)
{
    RepairKind kind;
    if (!tryRepairKindFromString(name, &kind))
        fatal("unknown repair policy '", name, "' (try ",
              repairNameList(), ")");
    return kind;
}

const std::vector<RepairKind> &
allRepairKinds()
{
    static const std::vector<RepairKind> kinds = {
        RepairKind::None, RepairKind::SpareRows,
        RepairKind::EccDuplicate, RepairKind::Refresh};
    return kinds;
}

CellFaultMap::CellFaultMap(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), cells_(rows * cols, Cell::Ok)
{
}

CellFaultMap::CellFaultMap(size_t rows, size_t cols,
                           const FaultParams &params, uint64_t seed)
    : CellFaultMap(rows, cols)
{
    GOPIM_ASSERT(rows > 0 && cols > 0, "fault map needs a shape");
    GOPIM_ASSERT(params.stuckOnRate >= 0.0 && params.stuckOnRate < 1.0,
                 "stuck-on rate must be in [0, 1)");
    GOPIM_ASSERT(
        params.stuckOffRate >= 0.0 && params.stuckOffRate < 1.0,
        "stuck-off rate must be in [0, 1)");
    Rng rng(seed);
    for (auto &cell : cells_) {
        const double u = rng.uniform();
        if (u < params.stuckOffRate)
            cell = Cell::StuckOff;
        else if (u < params.stuckOffRate + params.stuckOnRate)
            cell = Cell::StuckOn;
    }
}

double
CellFaultMap::faultFraction() const
{
    size_t faulty = 0;
    for (const Cell cell : cells_)
        faulty += cell != Cell::Ok;
    return static_cast<double>(faulty) /
           static_cast<double>(cells_.size());
}

size_t
CellFaultMap::faultyRowCount() const
{
    size_t count = 0;
    for (size_t r = 0; r < rows_; ++r) {
        for (size_t c = 0; c < cols_; ++c) {
            if (at(r, c) != Cell::Ok) {
                ++count;
                break;
            }
        }
    }
    return count;
}

void
CellFaultMap::apply(tensor::Matrix &programmed) const
{
    GOPIM_ASSERT(programmed.rows() == rows_ &&
                     programmed.cols() == cols_,
                 "fault map / matrix shape mismatch");
    float maxAbs = 0.0f;
    const float *p = programmed.data();
    for (size_t i = 0; i < programmed.size(); ++i)
        maxAbs = std::max(maxAbs, std::fabs(p[i]));

    float *out = programmed.data();
    for (size_t i = 0; i < cells_.size(); ++i) {
        switch (cells_[i]) {
          case Cell::Ok:
            break;
          case Cell::StuckOff:
            out[i] = 0.0f;
            break;
          case Cell::StuckOn:
            out[i] = maxAbs;
            break;
        }
    }
}

size_t
CellFaultMap::repairRows(double fraction)
{
    GOPIM_ASSERT(fraction >= 0.0 && fraction <= 1.0,
                 "spare-row fraction must be in [0, 1]");
    const size_t budget =
        static_cast<size_t>(fraction * static_cast<double>(rows_));

    // Rank rows by fault count descending, ties toward lower index.
    std::vector<std::pair<size_t, size_t>> rowFaults; // (count, row)
    for (size_t r = 0; r < rows_; ++r) {
        size_t count = 0;
        for (size_t c = 0; c < cols_; ++c)
            count += at(r, c) != Cell::Ok;
        if (count > 0)
            rowFaults.push_back({count, r});
    }
    std::sort(rowFaults.begin(), rowFaults.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
              });

    const size_t repaired = std::min(budget, rowFaults.size());
    for (size_t i = 0; i < repaired; ++i) {
        const size_t r = rowFaults[i].second;
        std::fill(cells_.begin() + static_cast<long>(r * cols_),
                  cells_.begin() + static_cast<long>((r + 1) * cols_),
                  Cell::Ok);
    }
    return repaired;
}

CellFaultMap
CellFaultMap::maskedWith(const CellFaultMap &other) const
{
    GOPIM_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
                 "ECC mask shape mismatch");
    CellFaultMap out(rows_, cols_);
    for (size_t i = 0; i < cells_.size(); ++i) {
        if (cells_[i] != Cell::Ok && cells_[i] == other.cells_[i])
            out.cells_[i] = cells_[i];
    }
    return out;
}

std::vector<double>
groupFaultScores(uint32_t numGroups, double cellFaultRate,
                 uint64_t seed)
{
    GOPIM_ASSERT(numGroups > 0, "need at least one group");
    GOPIM_ASSERT(cellFaultRate >= 0.0, "fault rate must be >= 0");
    Rng rng(seed);
    std::vector<double> scores(numGroups);
    for (auto &score : scores)
        score = 2.0 * cellFaultRate * rng.uniform();
    return scores;
}

double
writeExposure(const std::vector<double> &groupWrites,
              const std::vector<double> &groupFaultScores)
{
    GOPIM_ASSERT(groupWrites.size() == groupFaultScores.size(),
                 "writes/scores size mismatch");
    double weighted = 0.0, total = 0.0;
    for (size_t g = 0; g < groupWrites.size(); ++g) {
        weighted += groupWrites[g] * groupFaultScores[g];
        total += groupWrites[g];
    }
    return total > 0.0 ? weighted / total : 0.0;
}

} // namespace gopim::fault
