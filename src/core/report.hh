/**
 * @file
 * Result serialization: RunResult and comparison grids to JSON (for
 * downstream analysis scripts) and CSV (for spreadsheets), used by
 * the gopim_sim tool, the benchmark harnesses (--json-out), and the
 * serving layer — all through the same common/json writer, so the
 * byte format never drifts between entry points.
 *
 * Also home of run-config canonicalization: a canonical JSON
 * description of everything that determines a run's plan (dataset
 * statistics, system configuration, hardware geometry) and of the
 * simulation context that times it, which the serving layer hashes
 * into plan-memo and content-addressed cache keys.
 */

#ifndef GOPIM_CORE_REPORT_HH
#define GOPIM_CORE_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/accelerator.hh"
#include "core/harness.hh"
#include "core/result.hh"

namespace gopim::core {

/** One run as a JSON object value. */
json::Value runResultToJson(const RunResult &run);

/** A comparison grid as a JSON array of run objects. */
json::Value gridToJson(const std::vector<ComparisonRow> &rows);

/**
 * Canonical description of every input that determines a run's
 * *plan* (mapping artifacts, stage costs, fault/repair planning,
 * replica allocation) but not how the plan is timed: dataset
 * statistics, model shape, batching, the system's policy, allocator,
 * pipelining and fault configuration, and the hardware geometry. Two
 * runs with equal prefixes can share one StagePlan (the harness's
 * core::PlanMemo and serve's plan keys build on this). With simContextJson added under "sim" it covers
 * every input of a run's result, which the serving layer hashes into
 * content-addressed cache keys. Serialize it with Value::canonical()
 * only: member order never matters there, and the "hardware" section
 * is a json::Value::raw of its canonical bytes, serialized once per
 * thread for the last hardware config seen.
 */
json::Value planConfigPrefix(const SystemConfig &system,
                             const reram::AcceleratorConfig &hw,
                             const gcn::Workload &workload);

/**
 * The "sim" section of a canonical run config: the engine that will
 * actually time the run, its seed and event knobs. Only scheduling
 * reads these, so plan keys leave the section out.
 */
json::Value simContextJson(const sim::SimContext &sim);

/** Serialize one run as a JSON object. */
void writeRunJson(const RunResult &run, std::ostream &os,
                  int indent = 0);

/** Serialize a comparison grid as a JSON array of run objects. */
void writeGridJson(const std::vector<ComparisonRow> &rows,
                   std::ostream &os);

/**
 * Serialize a comparison grid as CSV: one row per (dataset, system)
 * with makespan, energy, and normalized ratios vs the first system.
 */
void writeGridCsv(const std::vector<ComparisonRow> &rows,
                  std::ostream &os);

} // namespace gopim::core

#endif // GOPIM_CORE_REPORT_HH
