/**
 * @file
 * Result serialization: RunResult and comparison grids to JSON (for
 * downstream analysis scripts) and CSV (for spreadsheets), used by
 * the gopim_sim tool, the benchmark harnesses (--json-out), and the
 * serving layer — all through the same common/json writer, so the
 * byte format never drifts between entry points.
 *
 * Also home of run-config canonicalization: a canonical JSON
 * description of everything that determines a run's result (dataset
 * statistics, system configuration, simulation context, hardware
 * geometry), which the serving layer hashes into content-addressed
 * cache keys.
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
 * result: dataset statistics, model shape, batching, the system's
 * policy/allocator/pipeline configuration, the simulation context
 * (engine, seed, event knobs), and the hardware geometry. Two runs
 * with equal canonical configs produce bit-identical results, which
 * is the contract the serving layer's content-addressed cache keys
 * rely on (serialize with Value::canonical() so member order never
 * matters).
 */
json::Value canonicalRunConfig(const SystemConfig &system,
                               const reram::AcceleratorConfig &hw,
                               const gcn::Workload &workload);

/** The hardware section every canonical run and plan key carries. */
json::Value hardwareJson(const reram::AcceleratorConfig &hw);

/**
 * The sim-independent prefix of canonicalRunConfig: every input that
 * determines the Accelerator's *plan* (mapping artifacts, stage
 * costs, fault/repair planning, replica allocation) but not how the
 * plan is timed. The sim section — engine, seed, event knobs — only
 * affects scheduling, so two runs with equal prefixes can share one
 * StagePlan (core::PlanMemo keys on this). canonicalRunConfig is
 * this prefix plus the "sim" section.
 */
json::Value planConfigPrefix(const SystemConfig &system,
                             const reram::AcceleratorConfig &hw,
                             const gcn::Workload &workload);

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
