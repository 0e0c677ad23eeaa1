/**
 * @file
 * google-benchmark micro-benchmarks for the simulator's hot kernels:
 * the greedy heap allocator vs the bottleneck-sweep reference (the
 * paper's decision-time claim), pipeline scheduling, vertex mapping,
 * graph generation, and the MVM kernel of the tensor substrate.
 *
 * --json-out=PATH writes the timings through the repo's own JSON
 * writer (common/json.hh, the same machine-readable surface the
 * BENCH_*.json artifacts and core::runResultToJson use), so CI can
 * archive kernel timings without parsing benchmark's console format.
 *
 * Benchmarks that label themselves with an output digest and run
 * with --benchmark_repetitions=N (N >= 2) also get a "summary" entry:
 * median and 95% CI of the mean over the repetitions, plus the
 * digest. "bit_identical" is true when every repetition produced the
 * same digest and, with --baseline=PATH (an earlier --json-out file),
 * every digest matches the baseline's. The degree-ranking trajectory
 * (BENCH_degree_rank_{before,after}.json) is
 *
 *     micro_kernels --benchmark_filter='VertexProfileBuild|MappingArtifacts' \
 *         --benchmark_repetitions=7 [--baseline=BEFORE] --json-out=OUT
 *
 * the lazy-planning one (BENCH_plan_lazy_{before,after}.json) is the
 * same with --benchmark_filter='VertexProfileBuild|MappingArtifacts|GcnTrainCosts',
 * the event-engine one (BENCH_event_engine_{before,after}.json) is
 * the same with --benchmark_filter=EventSchedule, and the CSR-build
 * one (BENCH_graph_build_{before,after}.json) with
 * --benchmark_filter=GnnInferPlan, and the cache-key one
 * (BENCH_cache_key_{before,after}.json) with
 * --benchmark_filter=CacheKey.
 */

#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "alloc/allocator.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "alloc/dp.hh"
#include "alloc/greedy_heap.hh"
#include "common/rng.hh"
#include "core/systems.hh"
#include "gcn/time_model.hh"
#include "gcn/workload.hh"
#include "graph/generators.hh"
#include "mapping/vertex_map.hh"
#include "pipeline/schedule.hh"
#include "reram/config.hh"
#include "serve/request.hh"
#include "sim/engine.hh"
#include "tensor/init.hh"
#include "tensor/ops.hh"
#include "workload/family.hh"

namespace {

using namespace gopim;

alloc::AllocationProblem
makeProblem(size_t stages, uint64_t spare, uint64_t seed)
{
    Rng rng(seed);
    alloc::AllocationProblem p;
    for (size_t i = 0; i < stages; ++i) {
        p.stages.push_back({pipeline::StageType::Combination,
                            static_cast<uint32_t>(i / 4 + 1)});
        p.scalableTimesNs.push_back(rng.uniform(10.0, 5000.0));
        p.fixedTimesNs.push_back(rng.uniform(0.0, 50.0));
        p.crossbarsPerReplica.push_back(
            1 + rng.uniformInt(uint64_t{500}));
    }
    p.spareCrossbars = spare;
    p.numMicroBatches = 64;
    p.maxUsefulReplicas = 256;
    return p;
}

void
BM_GreedyHeapAllocator(benchmark::State &state)
{
    const auto p = makeProblem(static_cast<size_t>(state.range(0)),
                               1'000'000, 7);
    const alloc::GreedyHeapAllocator allocator;
    for (auto _ : state) {
        auto result = allocator.allocate(p);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_GreedyHeapAllocator)->Arg(8)->Arg(12)->Arg(24);

void
BM_BottleneckSweepAllocator(benchmark::State &state)
{
    // The expensive reference decision procedure (Section V-B says
    // DP-style decisions can take days at scale; compare decision
    // times against the greedy above).
    const auto p = makeProblem(static_cast<size_t>(state.range(0)),
                               1'000'000, 7);
    const alloc::BottleneckSweepAllocator allocator(256);
    for (auto _ : state) {
        auto result = allocator.allocate(p);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_BottleneckSweepAllocator)->Arg(8)->Arg(12);

void
BM_PipelineSchedule(benchmark::State &state)
{
    Rng rng(9);
    std::vector<double> times(12);
    for (auto &t : times)
        t = rng.uniform(1.0, 100.0);
    const auto b = static_cast<uint32_t>(state.range(0));
    for (auto _ : state) {
        auto result = pipeline::schedulePipelined(times, b);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_PipelineSchedule)->Arg(64)->Arg(1024);

void
BM_InterleavedMapping(benchmark::State &state)
{
    Rng rng(11);
    const auto degrees = graph::powerLawDegreeSequence(
        static_cast<uint64_t>(state.range(0)), 50.0, 2.1, 10000, rng);
    for (auto _ : state) {
        auto assignment = mapping::mapVertices(
            degrees, 64, mapping::VertexMapStrategy::Interleaved);
        benchmark::DoNotOptimize(assignment);
    }
}
BENCHMARK(BM_InterleavedMapping)->Arg(10000)->Arg(100000);

void
BM_ChungLuGeneration(benchmark::State &state)
{
    Rng rng(13);
    const auto degrees = graph::powerLawDegreeSequence(
        static_cast<uint64_t>(state.range(0)), 16.0, 2.1, 2000, rng);
    for (auto _ : state) {
        Rng local(17);
        auto g = graph::chungLu(degrees, local);
        benchmark::DoNotOptimize(g);
    }
}
BENCHMARK(BM_ChungLuGeneration)->Arg(10000)->Arg(50000);

void
BM_StageCostModel(benchmark::State &state)
{
    const gcn::StageTimeModel model(
        reram::AcceleratorConfig::paperDefault());
    const auto workload = gcn::Workload::paperDefault("arxiv");
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);
    gcn::ExecutionPolicy policy;
    policy.selectiveUpdate = true;
    policy.mapStrategy = mapping::VertexMapStrategy::Interleaved;
    const auto artifacts = gcn::MappingArtifacts::build(
        profile, policy, workload.dataset, 64);
    for (auto _ : state) {
        auto costs = model.allCosts(workload, policy, artifacts);
        benchmark::DoNotOptimize(costs);
    }
}
BENCHMARK(BM_StageCostModel);

uint64_t
hashWords(const std::vector<uint32_t> &words,
          uint64_t seed = kFnv1aOffsetBasis)
{
    return fnv1a64({reinterpret_cast<const char *>(words.data()),
                    words.size() * sizeof(uint32_t)},
                   seed);
}

void
BM_VertexProfileBuild(benchmark::State &state)
{
    const auto workload = gcn::Workload::paperDefault("products");
    gcn::VertexProfile profile;
    for (auto _ : state) {
        profile =
            gcn::VertexProfile::build(workload.dataset, workload.seed);
        benchmark::DoNotOptimize(profile.degrees.data());
    }
    state.SetLabel(hexDigest64(hashWords(profile.degrees)));
}
BENCHMARK(BM_VertexProfileBuild);

void
BM_MappingArtifacts(benchmark::State &state)
{
    // isu:0 is index mapping with full updates (five of the six
    // fig13 systems); isu:1 is interleaved mapping with adaptive-theta
    // selective updating (GoPIM).
    const auto workload = gcn::Workload::paperDefault("products");
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);
    gcn::ExecutionPolicy policy;
    if (state.range(0) == 1) {
        policy.mapStrategy = mapping::VertexMapStrategy::Interleaved;
        policy.selectiveUpdate = true;
    }
    gcn::MappingArtifacts artifacts;
    for (auto _ : state) {
        artifacts = gcn::MappingArtifacts::build(profile, policy,
                                                 workload.dataset, 64);
        benchmark::DoNotOptimize(artifacts.epochUpdateSlots);
    }
    const std::string important(artifacts.important.begin(),
                                artifacts.important.end());
    char scalars[2 * sizeof(double)];
    std::memcpy(scalars, &artifacts.epochUpdateSlots, sizeof(double));
    std::memcpy(scalars + sizeof(double), &artifacts.updateFraction,
                sizeof(double));
    uint64_t digest = hashWords(artifacts.assignment.groupOf);
    digest = fnv1a64(important, digest);
    digest = fnv1a64({scalars, sizeof(scalars)}, digest);
    state.SetLabel(hexDigest64(digest));
}
BENCHMARK(BM_MappingArtifacts)->ArgName("isu")->Arg(0)->Arg(1);

void
BM_GcnTrainCosts(benchmark::State &state)
{
    // Stage costing on products under ReGraphX (isu:0, index mapping
    // with full updates, which skips the per-vertex mapping) and
    // GoPIM (isu:1). The profile is built once, outside the timing.
    const auto workload = gcn::Workload::paperDefault("products");
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);
    const auto hw = reram::AcceleratorConfig::paperDefault();
    const auto policy =
        core::makeSystem(state.range(0) == 1 ? core::SystemKind::GoPim
                                             : core::SystemKind::ReGraphX)
            .policy;
    core::StageCosts costs;
    for (auto _ : state) {
        costs = core::gcnTrainCosts(
            workload,
            [&]() -> const gcn::VertexProfile & { return profile; },
            policy, hw);
        benchmark::DoNotOptimize(costs.fixedTimesNs.data());
    }
    std::vector<uint64_t> bits;
    for (const double t : costs.scalableTimesNs)
        bits.push_back(std::bit_cast<uint64_t>(t));
    for (const double t : costs.fixedTimesNs)
        bits.push_back(std::bit_cast<uint64_t>(t));
    for (const auto *counts :
         {&costs.crossbarsPerReplica, &costs.activationsPerMb,
          &costs.rowWritesPerMb, &costs.bufferBytesPerMb})
        bits.insert(bits.end(), counts->begin(), counts->end());
    state.SetLabel(hexDigest64(
        fnv1a64({reinterpret_cast<const char *>(bits.data()),
                 bits.size() * sizeof(uint64_t)})));
}
BENCHMARK(BM_GcnTrainCosts)->ArgName("isu")->Arg(0)->Arg(1);

/**
 * The schedule request core::Accelerator::executePlan hands the
 * event engine for `kind` on products (the grid's largest event
 * workload), with write retries so no timeline memo could apply.
 */
sim::ScheduleRequest
productsRequest(core::SystemKind kind, bool replicasAsServers)
{
    const core::SystemConfig system = core::makeSystem(kind);
    const auto workload = gcn::Workload::paperDefault("products");
    const core::Accelerator accelerator(
        reram::AcceleratorConfig::paperDefault(), system);
    const core::StagePlan plan = accelerator.buildPlan(
        workload,
        gcn::VertexProfile::build(workload.dataset, workload.seed));

    sim::ScheduleRequest request;
    request.stageTimesNs = replicasAsServers ? plan.serverStageTimesNs
                                             : plan.stageTimesNs;
    request.replicas = plan.effectiveReplicas;
    request.totalMicroBatches = plan.totalMicroBatches;
    request.microBatchesPerBatch = system.microBatchesPerBatch;
    request.regime = system.pipelineMode;
    return request;
}

void
BM_EventSchedule(benchmark::State &state)
{
    // case 0 Serial, 1 ReGraphX (intra-batch), 2 GoPIM (intra- and
    // inter-batch), 3 GoPIM with its replicas as servers.
    static const core::SystemKind kSystems[] = {
        core::SystemKind::Serial, core::SystemKind::ReGraphX,
        core::SystemKind::GoPim, core::SystemKind::GoPim};
    const auto which = static_cast<size_t>(state.range(0));
    const bool replicasAsServers = which == 3;
    sim::SimContext ctx;
    ctx.engine = sim::EngineKind::EventDriven;
    ctx.seed = 7;
    ctx.event.writeRetryProb = 0.05;
    ctx.event.writeFraction = 0.3;
    ctx.event.replicasAsServers = replicasAsServers;
    const isa::ScheduleDesc desc = sim::descFromRequest(
        productsRequest(kSystems[which], replicasAsServers), ctx);

    sim::StageTimeline timeline;
    for (auto _ : state) {
        timeline = sim::scheduleEventPath(desc, ctx, "event_driven");
        benchmark::DoNotOptimize(timeline.makespanNs);
    }
    std::vector<uint64_t> bits = {
        std::bit_cast<uint64_t>(timeline.makespanNs),
        timeline.eventsProcessed, timeline.maxEventQueueDepth};
    for (size_t i = 0; i < timeline.busyNs.size(); ++i) {
        bits.push_back(std::bit_cast<uint64_t>(timeline.busyNs[i]));
        bits.push_back(std::bit_cast<uint64_t>(timeline.blockedNs[i]));
    }
    state.SetLabel(hexDigest64(
        fnv1a64({reinterpret_cast<const char *>(bits.data()),
                 bits.size() * sizeof(uint64_t)})));
}
BENCHMARK(BM_EventSchedule)->ArgName("case")->DenseRange(0, 3);

void
BM_GnnInferPlan(benchmark::State &state)
{
    // One gnn-infer plan: materialize the capped Chung-Lu instance,
    // build its CSR and profile the partitioning. case 0-2 are collab
    // under row/col/nnz splits, 3-5 the same on arxiv.
    static const char *const kDatasets[] = {"collab", "arxiv"};
    static const workload::Partitioning kSplits[] = {
        workload::Partitioning::RowSplit,
        workload::Partitioning::ColSplit,
        workload::Partitioning::NnzBalanced};
    const auto which = static_cast<size_t>(state.range(0));
    workload::WorkloadSpec spec;
    spec.family = workload::FamilyKind::GnnInfer;
    spec.dataset = kDatasets[which / 3];
    spec.partition = kSplits[which % 3];
    const auto hw = reram::AcceleratorConfig::paperDefault();
    const auto &family = workload::familyFor(spec.family);

    core::StageCosts plan;
    for (auto _ : state) {
        plan = family.plan(spec, hw);
        benchmark::DoNotOptimize(plan.fixedTimesNs.data());
    }
    std::vector<uint64_t> bits;
    for (const double t : plan.scalableTimesNs)
        bits.push_back(std::bit_cast<uint64_t>(t));
    for (const double t : plan.fixedTimesNs)
        bits.push_back(std::bit_cast<uint64_t>(t));
    state.SetLabel(hexDigest64(
        fnv1a64({reinterpret_cast<const char *>(bits.data()),
                 bits.size() * sizeof(uint64_t)})));
}
BENCHMARK(BM_GnnInferPlan)->ArgName("case")->DenseRange(0, 5);

/**
 * The request bodies of CacheKeyTest.DigestsMatchGoldenTable
 * (tests/test_serve.cc): every family, engine and fault knob, theta,
 * baselines, seeds and micro-batch sizes.
 */
const char *const kCacheKeyBodies[] = {
    R"({})",
    R"({"dataset":"Cora"})",
    R"({"dataset":"collab"})",
    R"({"dataset":"ppa"})",
    R"({"dataset":"proteins"})",
    R"({"dataset":"arxiv"})",
    R"({"dataset":"products"})",
    R"({"system":"Serial"})",
    R"({"system":"SlimGNN-like"})",
    R"({"system":"ReGraphX"})",
    R"({"system":"ReFlip"})",
    R"({"system":"GoPIM-Vanilla"})",
    R"({"system":"+PP"})",
    R"({"system":"+ISU"})",
    R"({"system":"Naive"})",
    R"({"engine":"closed"})",
    R"({"engine":"event"})",
    R"({"engine":"replay"})",
    R"({"dataset":"collab","engine":"event","retry_prob":0.2})",
    R"({"engine":"event","write_fraction":0.5})",
    R"({"engine":"event","buffer_slots":4})",
    R"({"engine":"event","buffer_slots":-1})",
    R"({"theta":0.5})",
    R"({"theta":0.25,"system":"ReGraphX"})",
    R"({"theta":1.0})",
    R"({"stuck_on_rate":0.001})",
    R"({"stuck_off_rate":0.002})",
    R"({"drift_rate":0.01})",
    R"({"stuck_on_rate":0.001,"repair":"none"})",
    R"({"stuck_on_rate":0.001,"repair":"spare-rows"})",
    R"({"stuck_on_rate":0.001,"repair":"ecc-dup"})",
    R"({"stuck_on_rate":0.001,"repair":"spare","spare_rows":0.1})",
    R"({"stuck_on_rate":0.001,"refresh_period":16})",
    R"({"baseline":"Serial"})",
    R"({"baseline":"ReGraphX","dataset":"Cora"})",
    R"({"seed":0})",
    R"({"seed":7})",
    R"({"seed":123456789})",
    R"({"micro_batch":16})",
    R"({"micro_batch":128,"epochs":2})",
    R"({"workload":"gnn-infer","dataset":"Cora"})",
    R"({"workload":"gnn-infer","dataset":"Cora","partition":"row"})",
    R"({"workload":"gnn-infer","dataset":"Cora","partition":"col"})",
    R"({"workload":"gnn-infer","dataset":"Cora","partition":"nnz"})",
    R"({"workload":"gnn-infer","dataset":"ddi","partition":"col",)"
    R"("engine":"event","seed":3})",
    R"({"workload":"gnn-infer","dataset":"collab","baseline":"Serial"})",
    R"({"workload":"gnn-infer","dataset":"Cora","micro_batch":16,)"
    R"("engine":"replay"})",
    R"({"workload":"cnn-infer"})",
    R"({"workload":"cnn-infer","dataset":"mnist"})",
    R"({"workload":"cnn-infer","dataset":"cifar"})",
    R"({"workload":"cnn-infer","dataset":"tiny-imagenet"})",
    R"({"workload":"cnn-infer","baseline":"Serial"})",
    R"({"workload":"cnn-infer","system":"ReGraphX","engine":"event",)"
    R"("seed":9})",
    R"({"workload":"cnn-infer","micro_batch":8,"partition":"col"})",
};

serve::ResolvedRequest
resolveBody(const std::string &text)
{
    json::Value body;
    serve::Request request;
    serve::ResolvedRequest resolved;
    if (!json::Value::parse(text, &body) ||
        !serve::parseRequest(body, serve::Request{}, &request).ok() ||
        !serve::resolveRequest(request, &resolved).ok())
        fatal("cache-key bench body does not resolve: ", text);
    return resolved;
}

void
BM_CacheKey(benchmark::State &state)
{
    // One iteration keys every golden-table body: parse 0 times
    // serve::cacheKey alone over the resolved requests, parse 1 the
    // whole dispatch prefix (parse, resolve, key) from the text. The
    // label digests every key, so it moves iff a key byte does.
    const bool withParse = state.range(0) != 0;
    const auto hw = reram::AcceleratorConfig::paperDefault();
    std::vector<std::string> bodies(std::begin(kCacheKeyBodies),
                                    std::end(kCacheKeyBodies));
    std::vector<serve::ResolvedRequest> resolved;
    for (const auto &body : bodies)
        resolved.push_back(resolveBody(body));

    std::vector<std::string> keys(bodies.size());
    for (auto _ : state) {
        for (size_t i = 0; i < bodies.size(); ++i)
            keys[i] = withParse
                          ? serve::cacheKey(resolveBody(bodies[i]), hw)
                          : serve::cacheKey(resolved[i], hw);
        benchmark::DoNotOptimize(keys.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(bodies.size()));
    uint64_t digest = kFnv1aOffsetBasis;
    for (const auto &key : keys)
        digest = fnv1a64(key, digest);
    state.SetLabel(hexDigest64(digest));
}
BENCHMARK(BM_CacheKey)->ArgName("parse")->Arg(0)->Arg(1);

void
BM_DenseMatmul(benchmark::State &state)
{
    Rng rng(19);
    const auto n = static_cast<size_t>(state.range(0));
    const auto a = tensor::uniformInit(n, n, -1.0f, 1.0f, rng);
    const auto b = tensor::uniformInit(n, n, -1.0f, 1.0f, rng);
    for (auto _ : state) {
        auto c = tensor::matmul(a, b);
        benchmark::DoNotOptimize(c);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(n) * n * n);
}
BENCHMARK(BM_DenseMatmul)->Arg(64)->Arg(256);

/**
 * Console reporter that additionally collects every run into a
 * common/json document instead of benchmark's own JSON dialect, so
 * the output matches the BENCH_*.json artifacts the ablation benches
 * emit. Riding on the display reporter avoids the library's
 * requirement that file reporters come with --benchmark_out.
 */
class JsonCollector : public benchmark::ConsoleReporter
{
  public:
    /** `baseline` is an earlier document() (null when none). */
    explicit JsonCollector(json::Value baseline)
        : baseline_(std::move(baseline))
    {
    }

    void ReportRuns(const std::vector<Run> &runs) override
    {
        benchmark::ConsoleReporter::ReportRuns(runs);
        for (const auto &run : runs) {
            if (run.error_occurred)
                continue;
            json::Value v = json::Value::object();
            v.set("name", run.benchmark_name());
            v.set("iterations",
                  static_cast<double>(run.iterations));
            v.set("real_time_ns", run.GetAdjustedRealTime());
            v.set("cpu_time_ns", run.GetAdjustedCPUTime());
            if (const auto it = run.counters.find("items_per_second");
                it != run.counters.end())
                v.set("items_per_second",
                      static_cast<double>(it->second));
            runs_.push(std::move(v));
            if (run.run_type == Run::RT_Iteration &&
                !run.report_label.empty()) {
                Samples &s = samples_[run.run_name.str()];
                s.realNs.push_back(run.GetAdjustedRealTime());
                s.digests.push_back(run.report_label);
            }
        }
    }

    json::Value document() &&
    {
        json::Value doc = json::Value::object();
        doc.set("bench", "micro_kernels");
        doc.set("runs", std::move(runs_));
        if (samples_.empty())
            return doc;

        bool identical = true;
        json::Value summary = json::Value::array();
        for (const auto &[name, s] : samples_) {
            std::vector<double> samplesMs;
            Accumulator ms;
            for (const double ns : s.realNs) {
                samplesMs.push_back(ns / 1e6);
                ms.add(ns / 1e6);
            }
            // 95% CI of the mean: mean +- 1.96 * s / sqrt(n) with the
            // sample standard deviation s, i.e. the population one
            // over sqrt(n - 1).
            const auto n = static_cast<double>(ms.count());
            const double halfWidth =
                n > 1 ? 1.96 * ms.stddev() / std::sqrt(n - 1) : 0.0;
            const std::string &digest = s.digests.front();
            bool same = true;
            for (const auto &d : s.digests)
                same = same && d == digest;
            if (const auto *base = baselineDigest(name))
                same = same && *base == digest;
            identical = identical && same;

            json::Value ci = json::Value::array();
            ci.push(ms.mean() - halfWidth);
            ci.push(ms.mean() + halfWidth);
            json::Value v = json::Value::object();
            v.set("name", name);
            v.set("repetitions", ms.count());
            v.set("median_ms", percentile(samplesMs, 50.0));
            v.set("mean_ms", ms.mean());
            v.set("ci95_ms", std::move(ci));
            v.set("digest", digest);
            summary.push(std::move(v));
        }
        doc.set("summary", std::move(summary));
        doc.set("bit_identical", identical);
        return doc;
    }

  private:
    struct Samples
    {
        std::vector<double> realNs;
        std::vector<std::string> digests;
    };

    const std::string *
    baselineDigest(const std::string &name) const
    {
        const json::Value *summary = baseline_.isObject()
                                         ? baseline_.find("summary")
                                         : nullptr;
        if (!summary || !summary->isArray())
            return nullptr;
        for (const auto &entry : summary->items()) {
            const json::Value *n = entry.find("name");
            const json::Value *d = entry.find("digest");
            if (n && d && n->isString() && d->isString() &&
                n->asString() == name)
                return &d->asString();
        }
        return nullptr;
    }

    json::Value baseline_;
    json::Value runs_ = json::Value::array();
    std::map<std::string, Samples> samples_;
};

} // namespace

int
main(int argc, char **argv)
{
    // Peel off --json-out and --baseline before benchmark sees the
    // arguments; every other flag passes through to the library
    // untouched.
    std::string jsonOut, baselinePath;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        constexpr const char *kJsonOut = "--json-out=";
        constexpr const char *kBaseline = "--baseline=";
        if (std::strncmp(argv[i], kJsonOut, std::strlen(kJsonOut)) == 0)
            jsonOut = argv[i] + std::strlen(kJsonOut);
        else if (std::strncmp(argv[i], kBaseline,
                              std::strlen(kBaseline)) == 0)
            baselinePath = argv[i] + std::strlen(kBaseline);
        else
            args.push_back(argv[i]);
    }
    int filteredArgc = static_cast<int>(args.size());
    benchmark::Initialize(&filteredArgc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filteredArgc,
                                               args.data()))
        return 1;

    if (jsonOut.empty()) {
        benchmark::RunSpecifiedBenchmarks();
    } else {
        json::Value baseline;
        if (!baselinePath.empty()) {
            std::ifstream in(baselinePath);
            std::stringstream text;
            text << in.rdbuf();
            std::string error;
            if (!in || !json::Value::parse(text.str(), &baseline, &error))
                fatal("cannot read --baseline file ", baselinePath, ": ",
                      error);
        }
        JsonCollector collector(std::move(baseline));
        benchmark::RunSpecifiedBenchmarks(&collector);
        std::ofstream out(jsonOut);
        if (!out)
            fatal("cannot open --json-out file ", jsonOut);
        out << std::move(collector).document().dumpIndented() << '\n';
    }
    benchmark::Shutdown();
    return 0;
}
