/**
 * @file
 * perfbench: one run of one benchmark workload.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--serve-rate R] [--golden DIR]
 *             [--serve-bin PATH] [--run-dir DIR] [--trace-out FILE]
 *             [--write-golden FILE]
 *
 * Human-readable notes go to stderr. The last stdout line is one JSON
 * object {"correct","attempted","failed","metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 * Exit status 0 means the run completed (correct or not); any usage
 * or start-up error exits 2 without printing a result.
 */

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hh"
#include "common/json.hh"

namespace perfbench {

namespace {

/** Every end-to-end metric, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"ops_per_s", "ops/s"},         {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"sim_speedup_geomean", "x"},   {"success_fraction", "ratio"},
    {"setup_s", "s"},               {"peak_rss_mb", "MiB"},
};

/**
 * Every per-layer metric. A layer a workload never enters reports 0
 * (the traced run found no work there).
 */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"gcn.profile_ms", "ms"},
    {"gcn.profile_calls", "count"},
    {"mapping.artifacts_ms", "ms"},
    {"mapping.artifacts_calls", "count"},
    {"gcn.cost_ms", "ms"},
    {"alloc.allocate_ms", "ms"},
    {"alloc.allocate_calls", "count"},
    {"core.plan_self_ms", "ms"},
    {"core.plan_cache.hits", "count"},
    {"core.plan_cache.misses", "count"},
    {"core.report_ms", "ms"},
    {"workload.run_ms", "ms"},
    {"sim.schedule_ms", "ms"},
    {"sim.schedule.count", "count"},
    {"sim.events", "count"},
    {"sim.events_per_s", "events/s"},
    {"sim.event_queue.max_depth", "count"},
    {"isa.lower_ms", "ms"},
    {"isa.commands", "count"},
    {"isa.verify_ms", "ms"},
    {"isa.encode_ms", "ms"},
    {"isa.decode_ms", "ms"},
    {"isa.trace_bytes", "bytes"},
    {"serve.parse_ms", "ms"},
    {"serve.key_ms", "ms"},
    {"serve.cache_ms", "ms"},
    {"serve.hits", "count"},
    {"serve.misses", "count"},
    {"serve.evictions", "count"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p95_ms", "ms"},
    {"serve.inflight_max", "count"},
    {"cluster.route_ms", "ms"},
    {"cluster.frame_rtt_ms", "ms"},
    {"cluster.shard_max_over_mean", "ratio"},
    {"cluster.shed", "count"},
    {"cluster.restarts", "count"},
    {"driver.lag_p95_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.covered_pct", "%"},
};

int
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem
              << "\nusage: perfbench --workload "
                 "<grid-cold|grid-warm-event|serve-mixed|router-3shard> "
                 "--seed N --seconds S --trace 0|1 [options]\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Options *options, std::string *problem)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
            *problem = "bad argument '" + key + "'";
            return false;
        }
        args[key.substr(2)] = argv[++i];
    }
    try {
        for (const auto &[key, value] : args) {
            if (key == "workload")
                options->workload = value;
            else if (key == "seed")
                options->seed = std::stoull(value);
            else if (key == "seconds")
                options->seconds = std::stod(value);
            else if (key == "trace")
                options->trace = std::stoi(value) != 0;
            else if (key == "serve-rate")
                options->serveRate = std::stod(value);
            else if (key == "golden")
                options->goldenDir = value;
            else if (key == "write-golden")
                options->writeGolden = value;
            else if (key == "serve-bin")
                options->serveBin = value;
            else if (key == "run-dir")
                options->runDir = value;
            else if (key == "trace-out")
                options->traceOut = value;
            else {
                *problem = "unknown option --" + key;
                return false;
            }
        }
    } catch (const std::exception &) {
        *problem = "bad option value";
        return false;
    }
    if (options->seconds <= 0.0 || options->serveRate < 0.0) {
        *problem = "--seconds and --serve-rate must be positive";
        return false;
    }
    return true;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    std::string problem;
    if (!parseArgs(argc, argv, &options, &problem))
        return usage(problem);

    Outcome outcome;
    try {
        if (options.workload == "grid-cold" ||
            options.workload == "grid-warm-event")
            outcome = runGridWorkload(options);
        else if (options.workload == "serve-mixed") {
            if (options.serveRate <= 0.0)
                return usage("serve-mixed needs --serve-rate");
            outcome = runServeMixed(options);
        }
        else if (options.workload == "router-3shard") {
            if (options.serveBin.empty() || options.runDir.empty())
                return usage("router-3shard needs --serve-bin and "
                             "--run-dir");
            outcome = runRouter(options);
        } else
            return usage("unknown workload '" + options.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }

    for (const auto &note : outcome.notes)
        std::cerr << "[" << options.workload << "] " << note << '\n';
    if (!options.writeGolden.empty())
        return outcome.failed == 0 ? 0 : 1;
    if (outcome.attempted == 0)
        return usage("the run attempted nothing");

    const auto &wanted = options.trace ? kPerLayer : kEndToEnd;
    if (!options.trace)
        outcome.add("success_fraction",
                    static_cast<double>(outcome.attempted - outcome.failed) /
                        static_cast<double>(outcome.attempted),
                    "ratio");
    gopim::json::Value metrics = gopim::json::Value::object();
    for (const auto &[name, unit] : wanted) {
        double value = 0.0;
        for (const auto &m : outcome.metrics)
            if (m.name == name)
                value = m.value;
        gopim::json::Value entry = gopim::json::Value::object();
        entry.set("value", value);
        entry.set("unit", unit);
        metrics.set(name, std::move(entry));
    }
    gopim::json::Value result = gopim::json::Value::object();
    result.set("correct", outcome.failed == 0);
    result.set("attempted", outcome.attempted);
    result.set("failed", outcome.failed);
    result.set("metrics", std::move(metrics));
    std::cout << result.dump() << std::endl;
    return 0;
}
