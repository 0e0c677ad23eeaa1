#include "serve/request.hh"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "core/accelerator.hh"
#include "core/options.hh"
#include "core/report.hh"
#include "graph/datasets.hh"
#include "workload/cnn_infer.hh"
#include "workload/runner.hh"

namespace gopim::serve {

namespace {

RequestError
badType(const char *field, const char *expected)
{
    return {"bad_type", field,
            std::string("field '") + field + "' must be " + expected};
}

RequestError
outOfRange(const char *field, const std::string &detail)
{
    return {"out_of_range", field,
            std::string("field '") + field + "' " + detail};
}

RequestError
unknownName(const char *field, const std::string &name,
            const std::string &hint)
{
    std::string message = std::string("unknown ") + field + " '" +
                          name + "'";
    if (!hint.empty())
        message += " (" + hint + ")";
    return {"unknown_name", field, message};
}

bool
getString(const json::Value &v, std::string *out, RequestError *err,
          const char *field)
{
    if (!v.isString()) {
        *err = badType(field, "a string");
        return false;
    }
    *out = v.asString();
    return true;
}

bool
getInt(const json::Value &v, int64_t min, int64_t max, int64_t *out,
       RequestError *err, const char *field)
{
    if (!v.isInt()) {
        *err = badType(field, "an integer");
        return false;
    }
    const int64_t value = v.asInt();
    if (value < min || value > max) {
        *err = outOfRange(field, "must be in [" + std::to_string(min) +
                                     ", " + std::to_string(max) +
                                     "], got " + std::to_string(value));
        return false;
    }
    *out = value;
    return true;
}

bool
getNumber(const json::Value &v, double *out, RequestError *err,
          const char *field)
{
    if (!v.isNumber()) {
        *err = badType(field, "a number");
        return false;
    }
    *out = v.asDouble();
    return true;
}

/** A number constrained to [0, 1) — the fault-rate flag ranges. */
bool
getUnitRate(const json::Value &v, double *out, RequestError *err,
            const char *field)
{
    double value = 0.0;
    if (!getNumber(v, &value, err, field))
        return false;
    if (value < 0.0 || value >= 1.0) {
        *err = outOfRange(field, "must be in [0, 1), got " +
                                     std::to_string(value));
        return false;
    }
    *out = value;
    return true;
}

/** Every top-level key parseRequest accepts, for typo hints. */
constexpr const char *kKnownFields[] = {
    "id",           "dataset",       "workload",    "partition",
    "system",       "baseline",      "engine",      "seed",
    "micro_batch",  "epochs",        "theta",       "buffer_slots",
    "retry_prob",   "write_fraction", "stuck_on_rate",
    "stuck_off_rate", "drift_rate",  "repair",      "spare_rows",
    "refresh_period", "trace_out",
};

/** Classic Levenshtein distance; inputs are short field names. */
size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<size_t> row(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        size_t diagonal = row[0];
        row[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            const size_t previous = row[j];
            const size_t substitute =
                diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min(
                {substitute, row[j] + 1, row[j - 1] + 1});
            diagonal = previous;
        }
    }
    return row[b.size()];
}

/**
 * Nearest-match hint for an unknown top-level key, the same registry
 * hint pattern the workload/engine names use: a close misspelling
 * names the intended field, anything else lists the schema.
 */
RequestError
unknownField(const std::string &key)
{
    std::string message = "unknown field '" + key + "'";
    const char *closest = nullptr;
    size_t best = std::max<size_t>(2, key.size() / 3) + 1;
    for (const char *known : kKnownFields) {
        const size_t distance = editDistance(key, known);
        if (distance < best) {
            best = distance;
            closest = known;
        }
    }
    if (closest) {
        message += std::string(" (did you mean '") + closest + "'?)";
    } else {
        message += " (known fields: ";
        bool first = true;
        for (const char *known : kKnownFields) {
            if (!first)
                message += ", ";
            message += known;
            first = false;
        }
        message += ")";
    }
    return {"unknown_field", key, message};
}

/** The first unknown dataset, system or baseline name, if any. */
RequestError
checkNames(const Request &req)
{
    if (req.family == workload::FamilyKind::CnnInfer) {
        if (!workload::findCnnPreset(req.dataset))
            return unknownName("dataset", req.dataset,
                               "cnn-infer presets: " +
                                   workload::cnnPresetNameList());
    } else if (!graph::DatasetCatalog::findByName(req.dataset)) {
        return unknownName("dataset", req.dataset, "");
    }
    core::SystemKind kind;
    if (!core::systemFromString(req.system, &kind))
        return unknownName("system", req.system, "");
    if (!req.baseline.empty() &&
        !core::systemFromString(req.baseline, &kind))
        return unknownName("baseline", req.baseline, "");
    return RequestError::none();
}

} // namespace

RequestError
parseRequest(const json::Value &body, const Request &defaults,
             Request *out)
{
    if (!body.isObject())
        return {"bad_request", "", "request must be a JSON object"};

    Request req = defaults;
    req.id.clear();
    req.traceOut.clear();
    RequestError err;
    // Fault knobs model device wear across training epochs; the
    // inference families have no notion of them, so remember whether
    // one was spelled out to reject the combination after the loop
    // (the `workload` key may come later in the object).
    std::string faultField;

    for (const auto &[key, value] : body.members()) {
        if (key == "id") {
            if (!getString(value, &req.id, &err, "id"))
                return err;
        } else if (key == "dataset") {
            if (!getString(value, &req.dataset, &err, "dataset"))
                return err;
            req.datasetSet = true;
        } else if (key == "workload") {
            std::string name;
            if (!getString(value, &name, &err, "workload"))
                return err;
            if (!workload::tryFamilyFromString(name, &req.family))
                return unknownName("workload", name,
                                   "try " +
                                       workload::familyNameList());
        } else if (key == "partition") {
            std::string name;
            if (!getString(value, &name, &err, "partition"))
                return err;
            if (!workload::tryPartitioningFromString(name,
                                                     &req.partition))
                return unknownName("partition", name,
                                   "try " +
                                       workload::partitionNameList());
        } else if (key == "system") {
            if (!getString(value, &req.system, &err, "system"))
                return err;
        } else if (key == "baseline") {
            if (!getString(value, &req.baseline, &err, "baseline"))
                return err;
        } else if (key == "engine") {
            std::string name;
            if (!getString(value, &name, &err, "engine"))
                return err;
            if (!sim::tryEngineKindFromString(name, &req.sim.engine))
                return unknownName("engine", name,
                                   "try " + sim::engineNameList());
        } else if (key == "seed") {
            int64_t seed = 0;
            if (!getInt(value, 0,
                        std::numeric_limits<int64_t>::max(), &seed,
                        &err, "seed"))
                return err;
            req.sim.seed = static_cast<uint64_t>(seed);
        } else if (key == "micro_batch") {
            int64_t mb = 0;
            if (!getInt(value, 1,
                        std::numeric_limits<uint32_t>::max(), &mb,
                        &err, "micro_batch"))
                return err;
            req.microBatch = static_cast<uint32_t>(mb);
        } else if (key == "epochs") {
            int64_t epochs = 0;
            if (!getInt(value, 1,
                        std::numeric_limits<uint32_t>::max(), &epochs,
                        &err, "epochs"))
                return err;
            req.epochs = static_cast<uint32_t>(epochs);
        } else if (key == "theta") {
            double theta = 0.0;
            if (!getNumber(value, &theta, &err, "theta"))
                return err;
            if (theta < 0.0 || theta > 1.0)
                return outOfRange("theta",
                                  "must be in [0, 1], got " +
                                      std::to_string(theta));
            req.theta = theta;
        } else if (key == "buffer_slots") {
            int64_t slots = 0;
            if (!getInt(value, -1,
                        std::numeric_limits<uint32_t>::max(), &slots,
                        &err, "buffer_slots"))
                return err;
            req.sim.event.inputBufferSlots =
                slots < 0 ? std::numeric_limits<uint32_t>::max()
                          : static_cast<uint32_t>(slots);
        } else if (key == "retry_prob") {
            if (!getNumber(value, &req.sim.event.writeRetryProb, &err,
                           "retry_prob"))
                return err;
        } else if (key == "write_fraction") {
            if (!getNumber(value, &req.sim.event.writeFraction, &err,
                           "write_fraction"))
                return err;
        } else if (key == "stuck_on_rate") {
            if (!getUnitRate(value, &req.fault.params.stuckOnRate,
                             &err, "stuck_on_rate"))
                return err;
            faultField = key;
        } else if (key == "stuck_off_rate") {
            if (!getUnitRate(value, &req.fault.params.stuckOffRate,
                             &err, "stuck_off_rate"))
                return err;
            faultField = key;
        } else if (key == "drift_rate") {
            if (!getUnitRate(value, &req.fault.params.driftPerEpoch,
                             &err, "drift_rate"))
                return err;
            faultField = key;
        } else if (key == "repair") {
            std::string name;
            if (!getString(value, &name, &err, "repair"))
                return err;
            if (!fault::tryRepairKindFromString(name,
                                                &req.fault.repair))
                return unknownName("repair", name,
                                   "try " + fault::repairNameList());
            faultField = key;
        } else if (key == "spare_rows") {
            if (!getUnitRate(value, &req.fault.spareRowFraction, &err,
                             "spare_rows"))
                return err;
            faultField = key;
        } else if (key == "refresh_period") {
            int64_t period = 0;
            if (!getInt(value, 1,
                        std::numeric_limits<uint32_t>::max(), &period,
                        &err, "refresh_period"))
                return err;
            req.fault.refreshPeriodMb =
                static_cast<uint32_t>(period);
            faultField = key;
        } else if (key == "trace_out") {
            if (!getString(value, &req.traceOut, &err, "trace_out"))
                return err;
        } else {
            return unknownField(key);
        }
    }

    // The same range semantics every CLI binary enforces via
    // core::addSimFlags.
    const std::string rangeError = core::eventKnobRangeError(
        req.sim.event.writeRetryProb, req.sim.event.writeFraction);
    if (!rangeError.empty())
        return {"out_of_range", "", rangeError};

    if (req.family != workload::FamilyKind::GcnTrain &&
        !faultField.empty())
        return {"bad_request", faultField,
                "field '" + faultField +
                    "' applies to the gcn-train family only"};

    // cnn-infer datasets are CNN presets, not graphs; an absent key
    // means "the default preset", not the server's default graph.
    if (req.family == workload::FamilyKind::CnnInfer && !req.datasetSet)
        req.dataset = workload::defaultCnnPreset();
    if (RequestError err = checkNames(req); !err.ok())
        return err;

    *out = std::move(req);
    return RequestError::none();
}

Request
requestDefaults(const Flags &flags)
{
    Request defaults;
    defaults.sim = core::simContextFromFlags(flags);
    defaults.fault = core::faultConfigFromFlags(flags);
    return defaults;
}

RequestError
resolveRequest(const Request &request, ResolvedRequest *out)
{
    ResolvedRequest resolved;
    resolved.request = request;
    if (RequestError err = checkNames(request); !err.ok())
        return err;
    core::systemFromString(request.system, &resolved.system);
    resolved.hasBaseline = !request.baseline.empty();
    if (resolved.hasBaseline)
        core::systemFromString(request.baseline, &resolved.baseline);

    if (request.family == workload::FamilyKind::CnnInfer) {
        // No catalog graph behind a preset: the workload view is a
        // stub that carries only the fields planConfigPrefix
        // serializes, so plan and cache keys stay well defined.
        resolved.workload = gcn::Workload{};
        resolved.workload.dataset.name = request.dataset;
    } else {
        resolved.workload =
            gcn::Workload::paperDefault(request.dataset);
    }
    resolved.workload.microBatchSize = request.microBatch;
    resolved.workload.epochs = request.epochs;
    resolved.workload.seed = request.sim.seed;

    resolved.spec.family = request.family;
    resolved.spec.dataset = request.dataset;
    resolved.spec.partition = request.partition;
    resolved.spec.microBatchSize = request.microBatch;
    resolved.spec.epochs = request.epochs;
    resolved.spec.seed = request.sim.seed;
    // Family-specific range checks (e.g. inference micro-batch
    // ceilings) happen here so the worker never trips the runner's
    // fatal() path on a served request.
    if (const std::string problem =
            workload::familyFor(request.family)
                .validateSpec(resolved.spec);
        !problem.empty())
        return {"out_of_range", "", problem};
    *out = std::move(resolved);
    return RequestError::none();
}

core::SystemConfig
configuredSystem(const ResolvedRequest &resolved)
{
    core::SystemConfig system = core::makeSystem(resolved.system);
    system.sim = resolved.request.sim;
    system.fault = resolved.request.fault;
    // A positive threshold forces selective updating on.
    if (resolved.request.theta > 0.0) {
        system.policy.selectiveUpdate = true;
        system.policy.theta = resolved.request.theta;
    }
    return system;
}

namespace {

/**
 * The baseline run's SystemConfig: makeSystem(baseline) in the
 * request's sim context and fault environment (no theta policy).
 */
core::SystemConfig
baselineSystem(const ResolvedRequest &resolved)
{
    core::SystemConfig base = core::makeSystem(resolved.baseline);
    base.sim = resolved.request.sim;
    base.fault = resolved.request.fault;
    return base;
}

/**
 * The sim-independent config one run of `resolved` under `system`
 * plans from, and so its plan key: core::planConfigPrefix plus the
 * workload family (and the partitioning for gnn-infer). cacheKey
 * adds the sim context and the baseline.
 */
json::Value
planConfig(const ResolvedRequest &resolved,
           const core::SystemConfig &system,
           const reram::AcceleratorConfig &hw)
{
    json::Value config =
        core::planConfigPrefix(system, hw, resolved.workload);
    // The family reshapes the whole run, so it always keys; the
    // partitioning only matters where a SpMM split exists (keying it
    // unconditionally would split entries on a field the other
    // families ignore).
    config.set("workload_family",
               workload::toString(resolved.request.family));
    if (resolved.request.family == workload::FamilyKind::GnnInfer)
        config.set("partition",
                   workload::toString(resolved.request.partition));
    return config;
}

} // namespace

PlanKeys
planKeys(const ResolvedRequest &resolved,
         const reram::AcceleratorConfig &hw)
{
    PlanKeys keys;
    keys.system =
        planConfig(resolved, configuredSystem(resolved), hw).canonical();
    if (resolved.hasBaseline)
        keys.baseline =
            planConfig(resolved, baselineSystem(resolved), hw)
                .canonical();
    return keys;
}

RequestRun
runRequest(const ResolvedRequest &resolved,
           const reram::AcceleratorConfig &hw, RequestPlans plans)
{
    // A promise this request owns is set on every path: with the
    // plan below, or with the exception that stopped any step first.
    try {
        RequestRun out;
        core::SystemConfig system = configuredSystem(resolved);
        // A per-request trace_out gets its own sink so the file holds
        // only this run; otherwise the context's sink (if any)
        // records.
        if (!resolved.request.traceOut.empty()) {
            out.trace = std::make_shared<sim::ChromeTraceSink>();
            system.sim.traceSink = out.trace;
        }
        std::optional<core::SystemConfig> base;
        if (resolved.hasBaseline)
            base = baselineSystem(resolved);

        // parseRequest rejects fault knobs for the inference
        // families, so their plan is their compiled costs, allocated.
        const bool familyRun =
            resolved.request.family != workload::FamilyKind::GcnTrain;
        const gcn::ProfileProvider profile =
            gcn::lazyProfile(resolved.workload);
        std::optional<core::StageCosts> costs;
        const auto build = [&](const core::SystemConfig &sys) {
            if (!familyRun)
                return std::make_shared<const core::StagePlan>(
                    core::Accelerator(hw, sys).buildPlan(
                        resolved.workload, profile));
            if (!costs)
                costs = workload::familyCosts(resolved.spec, hw);
            return std::make_shared<const core::StagePlan>(
                core::allocatePlan(*costs, sys, hw));
        };
        const auto planFor = [&](PlanSource &source,
                                 const core::SystemConfig &sys) {
            if (source.own) {
                PlanHandle plan = build(sys);
                std::exchange(source.own, nullptr)->set_value(plan);
                return plan;
            }
            return source.wait.valid() ? source.wait.get() : build(sys);
        };
        // Owned plans first: a request waiting on one of them never
        // waits behind this request's waits or runs.
        PlanHandle basePlan;
        if (base && plans.baseline.own && !plans.system.own)
            basePlan = planFor(plans.baseline, *base);
        out.plan = planFor(plans.system, system);
        if (base && !basePlan)
            basePlan = planFor(plans.baseline, *base);

        // The plan's label names a gcn-train result. A family's label
        // names its ISA streams and traces; its result names the
        // dataset.
        const auto runOn = [&](const core::SystemConfig &sys,
                               const core::StagePlan &plan) {
            core::RunResult result = core::executePlan(plan, sys, hw);
            if (familyRun)
                result.datasetName = resolved.spec.dataset;
            return result;
        };
        out.run = runOn(system, *out.plan);
        if (base)
            out.baseline = runOn(*base, *basePlan);
        return out;
    } catch (...) {
        for (PlanSource *source : {&plans.system, &plans.baseline})
            if (source->own)
                source->own->set_exception(std::current_exception());
        throw;
    }
}

std::string
errorResponseLine(const std::string &id, const RequestError &error)
{
    std::string line = "{\"type\":\"error\"";
    if (!id.empty())
        line += ",\"id\":\"" + json::escape(id) + "\"";
    line += ",\"code\":\"" + json::escape(error.code) + "\"";
    if (!error.field.empty())
        line += ",\"field\":\"" + json::escape(error.field) + "\"";
    line += ",\"error\":\"" + json::escape(error.message) + "\"}";
    return line;
}

bool
isErrorLine(const std::string &line)
{
    return line.rfind("{\"type\":\"error\"", 0) == 0;
}

std::string
defaultsFingerprint(const Request &defaults,
                    const reram::AcceleratorConfig &hw)
{
    DecodedLine decoded = decodeLine("{}", defaults, hw);
    if (!decoded.error.ok())
        fatal("serving defaults do not form a valid request: ",
              decoded.error.message);
    return decoded.key;
}

DecodedLine
decodeLine(const std::string &line, const Request &defaults,
           const reram::AcceleratorConfig &hw)
{
    DecodedLine out;
    json::Value body;
    std::string parseError;
    if (!json::Value::parse(line, &body, &parseError)) {
        out.error = {"bad_json", "", "invalid JSON: " + parseError};
        return out;
    }
    if (body.isObject()) {
        if (const json::Value *id = body.find("id"); id && id->isString())
            out.id = id->asString();
        // A query, not a simulation request: the caller answers it.
        if (const json::Value *type = body.find("type");
            type && type->isString() && type->asString() == "stats") {
            out.stats = true;
            return out;
        }
    }
    Request request;
    out.error = parseRequest(body, defaults, &request);
    if (!out.error.ok())
        return out;
    out.id = request.id;
    out.error = resolveRequest(request, &out.resolved);
    if (!out.error.ok())
        return out;
    out.key = cacheKey(out.resolved, hw);
    return out;
}

std::string
cacheKey(const ResolvedRequest &resolved,
         const reram::AcceleratorConfig &hw)
{
    const core::SystemConfig system = configuredSystem(resolved);
    json::Value config = planConfig(resolved, system, hw);
    config.set("sim", core::simContextJson(system.sim));
    config.set("baseline", resolved.hasBaseline
                               ? core::toString(resolved.baseline)
                               : "");
    return hexDigest64(fnv1a64(config.canonical()));
}

} // namespace gopim::serve
