/**
 * @file
 * Request schema of the serving layer: one JSONL object per
 * simulation, strictly validated (unknown fields and out-of-range
 * values are rejected with the same semantics as the CLI flags
 * declared by core::addSimFlags), resolved onto the existing
 * workload/system machinery, hashed into a content-addressed cache
 * key, and run by runRequest, which the service and gopim_sim share.
 * decodeLine takes a JSONL line through all of it up to the key; the
 * service and the cluster router both decode through it.
 */

#ifndef GOPIM_SERVE_REQUEST_HH
#define GOPIM_SERVE_REQUEST_HH

#include <future>
#include <memory>
#include <optional>
#include <string>

#include "common/flags.hh"
#include "common/json.hh"
#include "core/accelerator.hh"
#include "core/result.hh"
#include "core/systems.hh"
#include "fault/model.hh"
#include "gcn/workload.hh"
#include "reram/config.hh"
#include "sim/context.hh"
#include "sim/trace.hh"
#include "workload/family.hh"

namespace gopim::serve {

/**
 * Structured validation error. `code` is a stable machine-readable
 * identifier ("" = success):
 *   bad_json     the line is not parseable JSON (service layer)
 *   bad_request  the body is not a JSON object
 *   bad_type     a field holds the wrong JSON type
 *   out_of_range a value violates its CLI-flag range
 *   unknown_field an unrecognized top-level key
 *   unknown_name an unknown dataset/system/engine/repair name
 *   simulation_failed the run itself threw (service layer)
 * `field` names the offending top-level key when one exists.
 */
struct RequestError
{
    std::string code;
    std::string field;
    std::string message;

    bool ok() const { return code.empty(); }

    static RequestError none() { return {}; }
};

/**
 * One decoded simulation request. Field spellings mirror the CLI:
 *   id (string, echoed), dataset, system, baseline, engine,
 *   workload, partition, seed, micro_batch, epochs, theta,
 *   buffer_slots, retry_prob, write_fraction, trace_out,
 *   stuck_on_rate, stuck_off_rate, drift_rate, repair, spare_rows,
 *   refresh_period.
 * Unset fields inherit the server's defaults (its own --engine/
 * --seed/... flags). `workload` selects the family (the registry's
 * canonical names or aliases); for cnn-infer, `dataset` names a CNN
 * preset and defaults to workload::defaultCnnPreset(). Fault fields
 * are accepted for gcn-train only.
 */
struct Request
{
    std::string id;               ///< client correlation id ("" = none)
    std::string dataset = "ddi";
    bool datasetSet = false;      ///< dataset given explicitly
    std::string system = "GoPIM";
    workload::FamilyKind family = workload::FamilyKind::GcnTrain;
    workload::Partitioning partition =
        workload::Partitioning::RowSplit;
    std::string baseline;         ///< "" = no speedup comparison
    uint32_t microBatch = 64;
    uint32_t epochs = 1;
    double theta = 0.0;           ///< > 0 forces selective updating
    sim::SimContext sim;          ///< engine, seed, event knobs
    fault::FaultConfig fault;     ///< fault injection + repair knobs
    std::string traceOut;         ///< Chrome trace path ("" = none);
                                  ///< excluded from the cache key
};

/**
 * Request defaults from the shared simulation flags
 * (core::addSimFlags): their sim context and fault config. Every
 * binary takes its defaults from here, so the cluster hello's
 * defaultsFingerprint compares exactly these flags.
 */
Request requestDefaults(const Flags &flags);

/** A request bound to concrete catalog/system/engine objects. */
struct ResolvedRequest
{
    Request request;
    core::SystemKind system = core::SystemKind::GoPim;
    bool hasBaseline = false;
    core::SystemKind baseline = core::SystemKind::Serial;
    /**
     * GCN workload view. For cnn-infer (whose dataset is a preset,
     * not a catalog graph) this is a stub carrying only the
     * name/batching fields, used by the plan and cache keys.
     */
    gcn::Workload workload;
    /** Family view of the same request (workload/runner.hh input). */
    workload::WorkloadSpec spec;
};

/**
 * Decode and validate one parsed JSONL object against `defaults`.
 * Strict: unknown fields, wrong types, unknown dataset/system/engine
 * names, and values outside the core::addSimFlags ranges are all
 * rejected with a structured RequestError (unknown top-level keys
 * get a nearest-match hint). Fills `out` only on success.
 */
RequestError parseRequest(const json::Value &body,
                          const Request &defaults, Request *out);

/**
 * The error response envelope ({"type":"error",...}) as one JSONL
 * line, machine-readable code/field first. Shared by the Service and
 * the cluster router so a request rejected at either layer produces
 * byte-identical bytes.
 */
std::string errorResponseLine(const std::string &id,
                              const RequestError &error);

/** True when `line` is an error response (errorResponseLine). */
bool isErrorLine(const std::string &line);

/**
 * Fingerprint of the execution-relevant serving defaults: the cache
 * key the empty request {} resolves to under `defaults` + `hw`. Two
 * processes agreeing on this digest return byte-identical result
 * bytes for any request (every field a request may omit is covered
 * by the canonical run config), so the cluster hello exchanges it to
 * reject router/worker default mismatches up front.
 */
std::string defaultsFingerprint(const Request &defaults,
                                const reram::AcceleratorConfig &hw);

/** Bind catalog entries; RequestError::ok() on success. */
RequestError resolveRequest(const Request &request,
                            ResolvedRequest *out);

/**
 * The exact SystemConfig runRequest runs for a resolved request:
 * makeSystem(kind) with the request's sim context, faults and theta
 * policy applied. Shared by runRequest and the cache key so the key
 * always describes what would actually execute.
 */
core::SystemConfig configuredSystem(const ResolvedRequest &resolved);

/** An allocated plan, shared by every run that plans to it. */
using PlanHandle = std::shared_ptr<const core::StagePlan>;

/**
 * Where one run's plan comes from. `own` set: this request builds
 * the plan and fulfils the promise, which others may be waiting on.
 * Else `wait` valid: another request owns the build; take its plan.
 * Neither: build it locally (gopim_sim's path).
 */
struct PlanSource
{
    std::shared_ptr<std::promise<PlanHandle>> own;
    std::shared_future<PlanHandle> wait;
};

/** The plan sources of a request's system run and baseline run. */
struct RequestPlans
{
    PlanSource system;
    PlanSource baseline;
};

/**
 * A request's plan keys: the canonical plan config of its system
 * run and, when it names one, of its baseline run ("" otherwise).
 * A plan config is the cache key's config without the sim context
 * and the baseline name, so runs whose keys are equal allocate the
 * same plan.
 */
struct PlanKeys
{
    std::string system;
    std::string baseline;
};
PlanKeys planKeys(const ResolvedRequest &resolved,
                  const reram::AcceleratorConfig &hw);

/** One request's runs. */
struct RequestRun
{
    core::RunResult run;
    std::optional<core::RunResult> baseline; ///< if the request names one
    /**
     * The system run's allocated plan: its label ("ddi",
     * "cnn-infer[cifar]"), stages and micro-batches head the CLI text
     * report.
     */
    PlanHandle plan;
    /** The system run's trace when trace_out is set; caller writes it. */
    std::shared_ptr<sim::ChromeTraceSink> trace;
};

/**
 * Run a resolved request on `hw`: configuredSystem(resolved), then
 * the baseline (when named) in the same sim context and fault
 * environment, so the speedup isolates the system. Each run plans to
 * an allocated core::StagePlan in one place: gcn-train through
 * core::Accelerator::buildPlan, the inference families by allocating
 * their compiled costs. `plans` says where each plan comes from.
 * Owned plans are built first, before any wait and any run, and
 * every owned promise is fulfilled with the plan or the exception
 * that stopped its build. A plan taken from another request skips
 * costing and allocation, so only core::executePlan runs. The vertex
 * profile (built only when the policy ranks vertices or the fault
 * model needs wear vectors) and a family's compiled costs are built
 * at most once and shared with the baseline.
 */
RequestRun runRequest(const ResolvedRequest &resolved,
                      const reram::AcceleratorConfig &hw,
                      RequestPlans plans = {});

/**
 * Content-addressed cache key: hex FNV-1a digest of the canonical
 * (sorted-key) JSON of the configured system's plan config
 * (core::planConfigPrefix plus the workload family, and the
 * partitioning for gnn-infer; planKeys' system key) plus
 * its "sim" section (core::simContextJson) and the baseline system
 * name. Stable across request field reordering and across processes.
 */
std::string cacheKey(const ResolvedRequest &resolved,
                     const reram::AcceleratorConfig &hw);

/**
 * One decoded JSONL line: exactly one of a rejection (`error`), a
 * {"type":"stats"} query (`stats`), or a request with its cache key.
 */
struct DecodedLine
{
    std::string id;           ///< the id to echo, even on a rejection
    RequestError error;       ///< !ok(): the line is rejected
    bool stats = false;       ///< a stats query (the server answers)
    ResolvedRequest resolved; ///< otherwise: the request...
    std::string key;          ///< ...and cacheKey(resolved, hw)
};

/**
 * The one line decoder of every serving process: JSON parse (else
 * `bad_json`), id echo, stats query, then parseRequest against
 * `defaults`, resolveRequest and cacheKey on `hw`. serve::Service and
 * the cluster router both decode through it, so a line either one
 * rejects gets the same error bytes.
 */
DecodedLine decodeLine(const std::string &line, const Request &defaults,
                       const reram::AcceleratorConfig &hw);

} // namespace gopim::serve

#endif // GOPIM_SERVE_REQUEST_HH
