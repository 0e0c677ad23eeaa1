/**
 * @file
 * Workload-family subsystem tests: registry spellings, plan
 * determinism, the PyGim partitioning properties and their
 * min_element LPT reference, the gnn-infer plan's pinned time bits,
 * the gcn-train family's bit-identity with the accelerator path,
 * per-family disk trace replay, the serve-layer request schema, and
 * the StreamBuilder misuse diagnostics (each failure mode has a
 * distinct message).
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/accelerator.hh"
#include "core/report.hh"
#include "core/systems.hh"
#include "gcn/workload.hh"
#include "graph/generators.hh"
#include "isa/isa.hh"
#include "isa/trace_io.hh"
#include "serve/request.hh"
#include "sim/replay.hh"
#include "workload/cnn_infer.hh"
#include "workload/gnn_infer.hh"
#include "workload/runner.hh"

using namespace gopim;

namespace {

json::Value
parseJson(const std::string &text)
{
    json::Value v;
    std::string error;
    EXPECT_TRUE(json::Value::parse(text, &v, &error)) << error;
    return v;
}

graph::Graph
testGraph(uint64_t vertices, uint64_t seed)
{
    Rng rng(seed);
    const auto degrees = graph::powerLawDegreeSequence(
        vertices, 12.0, 2.1, 400, rng);
    return graph::chungLu(degrees, rng);
}

} // namespace

TEST(WorkloadRegistry, CanonicalAndAliasSpellingsRoundTrip)
{
    for (const auto &info : workload::familyRegistry()) {
        workload::FamilyKind kind;
        EXPECT_TRUE(workload::tryFamilyFromString(info.canonical,
                                                  &kind));
        EXPECT_EQ(kind, info.kind);
        EXPECT_TRUE(workload::tryFamilyFromString(info.alias, &kind));
        EXPECT_EQ(kind, info.kind);
        EXPECT_EQ(workload::toString(info.kind), info.canonical);
        EXPECT_EQ(workload::familyFor(info.kind).kind(), info.kind);
        EXPECT_EQ(workload::familyFor(info.kind).name(),
                  info.canonical);
    }
    workload::FamilyKind kind;
    EXPECT_FALSE(workload::tryFamilyFromString("bogus", &kind));
    EXPECT_NE(workload::familyNameList().find("gnn-infer"),
              std::string::npos);
    EXPECT_NE(workload::familyFlagHelp().find("cnn-infer"),
              std::string::npos);
}

TEST(WorkloadRegistry, PartitioningSpellingsRoundTrip)
{
    for (const auto &info : workload::partitionRegistry()) {
        workload::Partitioning strategy;
        EXPECT_TRUE(workload::tryPartitioningFromString(
            info.canonical, &strategy));
        EXPECT_EQ(strategy, info.kind);
        EXPECT_TRUE(
            workload::tryPartitioningFromString(info.alias,
                                                &strategy));
        EXPECT_EQ(strategy, info.kind);
        EXPECT_EQ(workload::toString(info.kind), info.canonical);
    }
    workload::Partitioning strategy;
    EXPECT_FALSE(
        workload::tryPartitioningFromString("diagonal", &strategy));
    EXPECT_NE(workload::partitionNameList().find("nnz-balanced"),
              std::string::npos);
}

TEST(WorkloadRegistry, UnknownNamesAreFatalInTheCliForm)
{
    EXPECT_DEATH(workload::familyFromString("bogus"),
                 "unknown workload family");
}

TEST(Partitioning, ProfilesMeasureTheExpectedMergeAndBalance)
{
    const graph::Graph g = testGraph(4096, 7);
    const uint32_t parts = 16;

    const auto row = workload::profilePartitioning(
        g, workload::Partitioning::RowSplit, parts);
    const auto col = workload::profilePartitioning(
        g, workload::Partitioning::ColSplit, parts);
    const auto nnz = workload::profilePartitioning(
        g, workload::Partitioning::NnzBalanced, parts);

    for (const auto &p : {row, col, nnz}) {
        EXPECT_EQ(p.parts, parts);
        EXPECT_GE(p.imbalance, 1.0);
    }
    // Row split leaves no merge; col split pays a log-depth reduction
    // tree; LPT pays one gather pass.
    EXPECT_EQ(row.mergeWindows, 0u);
    EXPECT_EQ(col.mergeWindows, 4u); // ceil(log2 16)
    EXPECT_EQ(nnz.mergeWindows, 1u);
    // LPT balances at least as well as contiguous ranges on a
    // skewed-degree graph.
    EXPECT_LE(nnz.imbalance, row.imbalance + 1e-12);
}

TEST(Partitioning, ProfilesAreDeterministic)
{
    const graph::Graph g = testGraph(2048, 11);
    for (const auto &info : workload::partitionRegistry()) {
        const auto a =
            workload::profilePartitioning(g, info.kind, 8);
        const auto b =
            workload::profilePartitioning(g, info.kind, 8);
        EXPECT_EQ(a.imbalance, b.imbalance);
        EXPECT_EQ(a.mergeWindows, b.mergeWindows);
    }
}

namespace {

/**
 * profilePartitioning as first written, with the nnz-balanced LPT as
 * a linear min_element scan per row: the lightest partition, lowest
 * index among ties.
 */
workload::PartitionProfile
referenceProfile(const graph::Graph &g, workload::Partitioning strategy,
                 uint32_t parts)
{
    const uint64_t v = g.numVertices();
    const uint64_t span = std::max<uint64_t>(1, (v + parts - 1) / parts);
    std::vector<uint64_t> partNnz(parts, 0);
    uint64_t totalNnz = 0;
    workload::PartitionProfile profile;
    profile.strategy = strategy;
    profile.parts = parts;
    switch (strategy) {
    case workload::Partitioning::RowSplit:
        for (graph::VertexId u = 0; u < v; ++u) {
            partNnz[std::min<uint64_t>(u / span, parts - 1)] +=
                g.degree(u);
            totalNnz += g.degree(u);
        }
        profile.mergeWindows = 0;
        break;
    case workload::Partitioning::ColSplit:
        for (graph::VertexId u = 0; u < v; ++u) {
            for (const graph::VertexId n : g.neighbors(u))
                ++partNnz[std::min<uint64_t>(n / span, parts - 1)];
            totalNnz += g.degree(u);
        }
        profile.mergeWindows = static_cast<uint32_t>(std::ceil(
            std::log2(static_cast<double>(std::max(2u, parts)))));
        break;
    case workload::Partitioning::NnzBalanced:
        for (const graph::VertexId u : g.verticesByDegreeDesc()) {
            *std::min_element(partNnz.begin(), partNnz.end()) +=
                g.degree(u);
            totalNnz += g.degree(u);
        }
        profile.mergeWindows = 1;
        break;
    }
    if (totalNnz > 0) {
        const double mean = static_cast<double>(totalNnz) /
                            static_cast<double>(parts);
        profile.imbalance = std::max(
            1.0,
            static_cast<double>(
                *std::max_element(partNnz.begin(), partNnz.end())) /
                mean);
    }
    return profile;
}

} // namespace

TEST(Partitioning, ProfilesMatchTheMinElementReference)
{
    // Skewed graphs, a regular graph (every LPT step ties), an edgeless
    // one, and partition counts from 1 to more than the vertex count.
    std::vector<graph::Graph> graphs = {testGraph(4096, 7),
                                        testGraph(3000, 19)};
    std::vector<std::pair<graph::VertexId, graph::VertexId>> cycle;
    for (graph::VertexId u = 0; u < 97; ++u)
        cycle.emplace_back(u, (u + 1) % 97);
    graphs.push_back(graph::Graph::fromEdges(97, cycle));
    graphs.push_back(graph::Graph::fromEdges(40, {}));
    for (size_t i = 0; i < graphs.size(); ++i) {
        for (const auto &info : workload::partitionRegistry()) {
            for (const uint32_t parts : {1u, 2u, 7u, 16u, 256u, 5000u}) {
                const auto got = workload::profilePartitioning(
                    graphs[i], info.kind, parts);
                const auto want =
                    referenceProfile(graphs[i], info.kind, parts);
                EXPECT_EQ(std::bit_cast<uint64_t>(got.imbalance),
                          std::bit_cast<uint64_t>(want.imbalance))
                    << "graph " << i << ", " << info.canonical << ", "
                    << parts << " parts";
                EXPECT_EQ(got.mergeWindows, want.mergeWindows);
                EXPECT_EQ(got.parts, parts);
                EXPECT_EQ(got.strategy, info.kind);
            }
        }
    }
}

namespace {

/** The stage times of one gnn-infer plan as IEEE-754 bit patterns. */
struct GnnPlanBits
{
    const char *dataset;
    const char *partition;
    uint64_t seed;
    std::vector<uint64_t> scalable;
    std::vector<uint64_t> fixed;
};

std::string
formatPlanBits(const GnnPlanBits &bits)
{
    std::ostringstream out;
    out << "{\"" << bits.dataset << "\", \"" << bits.partition << "\", "
        << bits.seed << ",\n {" << std::hex << std::showbase;
    for (size_t i = 0; i < bits.scalable.size(); ++i)
        out << (i ? ", " : "") << bits.scalable[i];
    out << "},\n {";
    for (size_t i = 0; i < bits.fixed.size(); ++i)
        out << (i ? ", " : "") << bits.fixed[i];
    out << "}},";
    return out.str();
}

GnnPlanBits
gnnPlanBits(const char *dataset, const char *partition, uint64_t seed)
{
    workload::WorkloadSpec spec;
    spec.family = workload::FamilyKind::GnnInfer;
    spec.dataset = dataset;
    EXPECT_TRUE(
        workload::tryPartitioningFromString(partition, &spec.partition));
    spec.seed = seed;
    const auto plan = workload::familyFor(spec.family).plan(
        spec, reram::AcceleratorConfig::paperDefault());
    GnnPlanBits bits{dataset, partition, seed, {}, {}};
    for (const double t : plan.scalableTimesNs)
        bits.scalable.push_back(std::bit_cast<uint64_t>(t));
    for (const double t : plan.fixedTimesNs)
        bits.fixed.push_back(std::bit_cast<uint64_t>(t));
    return bits;
}

/**
 * gnn-infer plans on the catalog graphs at their profiling cap,
 * produced by the sort-based CSR builder and the min_element LPT.
 */
const GnnPlanBits kGnnPlanGolden[] = {
    {"Cora", "row-split", 1,
     {0x40dd4f5c28f5c28f, 0x40cd4f5c28f5c28f, 0x40dd4f5c28f5c28f,
      0x40cd4f5c28f5c28f, 0x40dd4f5c28f5c28f, 0x40cd4f5c28f5c28f},
     {0x407fe5a98306e465, 0, 0x407fe5a98306e465, 0, 0x407fe5a98306e465,
      0}},
    {"Cora", "row-split", 2,
     {0x40dd4f5c28f5c28f, 0x40cd4f5c28f5c28f, 0x40dd4f5c28f5c28f,
      0x40cd4f5c28f5c28f, 0x40dd4f5c28f5c28f, 0x40cd4f5c28f5c28f},
     {0x40855699510c1a1f, 0, 0x40855699510c1a1f, 0, 0x40855699510c1a1f,
      0}},
    {"Cora", "col-split", 1,
     {0x40dd4f5c28f5c28f, 0x40cd4f5c28f5c28f, 0x40dd4f5c28f5c28f,
      0x40cd4f5c28f5c28f, 0x40dd4f5c28f5c28f, 0x40cd4f5c28f5c28f},
     {0x40a458a12f6d01b3, 0, 0x40a458a12f6d01b3, 0, 0x40a458a12f6d01b3,
      0}},
    {"Cora", "col-split", 2,
     {0x40dd4f5c28f5c28f, 0x40cd4f5c28f5c28f, 0x40dd4f5c28f5c28f,
      0x40cd4f5c28f5c28f, 0x40dd4f5c28f5c28f, 0x40cd4f5c28f5c28f},
     {0x40a5b192534f2bae, 0, 0x40a5b192534f2bae, 0, 0x40a5b192534f2bae,
      0}},
    {"Cora", "nnz-balanced", 1,
     {0x40dd4f5c28f5c28f, 0x40cd4f5c28f5c28f, 0x40dd4f5c28f5c28f,
      0x40cd4f5c28f5c28f, 0x40dd4f5c28f5c28f, 0x40cd4f5c28f5c28f},
     {0x4075dce590758eed, 0, 0x4075dce590758eed, 0, 0x4075dce590758eed,
      0}},
    {"Cora", "nnz-balanced", 2,
     {0x40dd4f5c28f5c28f, 0x40cd4f5c28f5c28f, 0x40dd4f5c28f5c28f,
      0x40cd4f5c28f5c28f, 0x40dd4f5c28f5c28f, 0x40cd4f5c28f5c28f},
     {0x4075f608680410a7, 0, 0x4075f608680410a7, 0, 0x4075f608680410a7,
      0}},
    {"collab", "row-split", 1,
     {0x413a8feb851eb852, 0x40cd4f5c28f5c28f, 0x413a8feb851eb852,
      0x40cd4f5c28f5c28f, 0x413a8feb851eb852, 0x40cd4f5c28f5c28f},
     {0x40b4df3480290e54, 0, 0x40b4df3480290e54, 0, 0x40b4df3480290e54,
      0}},
    {"collab", "row-split", 2,
     {0x413a8feb851eb852, 0x40cd4f5c28f5c28f, 0x413a8feb851eb852,
      0x40cd4f5c28f5c28f, 0x413a8feb851eb852, 0x40cd4f5c28f5c28f},
     {0x40bcbd968d635381, 0, 0x40bcbd968d635381, 0, 0x40bcbd968d635381,
      0}},
    {"collab", "col-split", 1,
     {0x413a8feb851eb852, 0x40cd4f5c28f5c28f, 0x413a8feb851eb852,
      0x40cd4f5c28f5c28f, 0x413a8feb851eb852, 0x40cd4f5c28f5c28f},
     {0x40b6b42a42b86a7d, 0, 0x40b6b42a42b86a7d, 0, 0x40b6b42a42b86a7d,
      0}},
    {"collab", "col-split", 2,
     {0x413a8feb851eb852, 0x40cd4f5c28f5c28f, 0x413a8feb851eb852,
      0x40cd4f5c28f5c28f, 0x413a8feb851eb852, 0x40cd4f5c28f5c28f},
     {0x40be928c4ff2afaa, 0, 0x40be928c4ff2afaa, 0, 0x40be928c4ff2afaa,
      0}},
    {"collab", "nnz-balanced", 1,
     {0x413a8feb851eb852, 0x40cd4f5c28f5c28f, 0x413a8feb851eb852,
      0x40cd4f5c28f5c28f, 0x413a8feb851eb852, 0x40cd4f5c28f5c28f},
     {0x404df2394b1745d6, 0, 0x404df2394b1745d6, 0, 0x404df2394b1745d6,
      0}},
    {"collab", "nnz-balanced", 2,
     {0x413a8feb851eb852, 0x40cd4f5c28f5c28f, 0x413a8feb851eb852,
      0x40cd4f5c28f5c28f, 0x413a8feb851eb852, 0x40cd4f5c28f5c28f},
     {0x404e061f2abbb7c8, 0, 0x404e061f2abbb7c8, 0, 0x404e061f2abbb7c8,
      0}},
    {"arxiv", "row-split", 1,
     {0x41330175c28f5c29, 0x40cd4f5c28f5c28f, 0x41330175c28f5c29,
      0x40cd4f5c28f5c28f, 0x41330175c28f5c29, 0x40cd4f5c28f5c28f},
     {0x40ae221ded9d8b02, 0, 0x40ae221ded9d8b02, 0, 0x40ae221ded9d8b02,
      0}},
    {"arxiv", "row-split", 2,
     {0x41330175c28f5c29, 0x40cd4f5c28f5c28f, 0x41330175c28f5c29,
      0x40cd4f5c28f5c28f, 0x41330175c28f5c29, 0x40cd4f5c28f5c28f},
     {0x40b443fb1ed99d7d, 0, 0x40b443fb1ed99d7d, 0, 0x40b443fb1ed99d7d,
      0}},
    {"arxiv", "col-split", 1,
     {0x41330175c28f5c29, 0x40cd4f5c28f5c28f, 0x41330175c28f5c29,
      0x40cd4f5c28f5c28f, 0x41330175c28f5c29, 0x40cd4f5c28f5c28f},
     {0x40b0e604b95e21aa, 0, 0x40b0e604b95e21aa, 0, 0x40b0e604b95e21aa,
      0}},
    {"arxiv", "col-split", 2,
     {0x41330175c28f5c29, 0x40cd4f5c28f5c28f, 0x41330175c28f5c29,
      0x40cd4f5c28f5c28f, 0x41330175c28f5c29, 0x40cd4f5c28f5c28f},
     {0x40b618f0e168f9a6, 0, 0x40b618f0e168f9a6, 0, 0x40b618f0e168f9a6,
      0}},
    {"arxiv", "nnz-balanced", 1,
     {0x41330175c28f5c29, 0x40cd4f5c28f5c28f, 0x41330175c28f5c29,
      0x40cd4f5c28f5c28f, 0x41330175c28f5c29, 0x40cd4f5c28f5c28f},
     {0x404eac7bf3106617, 0, 0x404eac7bf3106617, 0, 0x404eac7bf3106617,
      0}},
    {"arxiv", "nnz-balanced", 2,
     {0x41330175c28f5c29, 0x40cd4f5c28f5c28f, 0x41330175c28f5c29,
      0x40cd4f5c28f5c28f, 0x41330175c28f5c29, 0x40cd4f5c28f5c28f},
     {0x404dc580def76ca2, 0, 0x404dc580def76ca2, 0, 0x404dc580def76ca2,
      0}},
};

} // namespace

TEST(WorkloadPlans, GnnInferTimesMatchTable)
{
    ASSERT_EQ(std::size(kGnnPlanGolden), 18u);
    for (const auto &golden : kGnnPlanGolden)
        EXPECT_EQ(formatPlanBits(gnnPlanBits(golden.dataset,
                                             golden.partition,
                                             golden.seed)),
                  formatPlanBits(golden));
}

TEST(WorkloadPlans, AreDeterministicPerSpec)
{
    const auto hw = reram::AcceleratorConfig::paperDefault();
    workload::WorkloadSpec spec;
    spec.dataset = "Cora";
    for (const auto &family : {workload::FamilyKind::GcnTrain,
                               workload::FamilyKind::GnnInfer}) {
        spec.family = family;
        const auto a = workload::familyFor(family).plan(spec, hw);
        const auto b = workload::familyFor(family).plan(spec, hw);
        ASSERT_EQ(a.numStages(), b.numStages());
        EXPECT_EQ(a.scalableTimesNs, b.scalableTimesNs);
        EXPECT_EQ(a.fixedTimesNs, b.fixedTimesNs);
        EXPECT_EQ(a.crossbarsPerReplica, b.crossbarsPerReplica);
        EXPECT_EQ(a.totalMicroBatches, b.totalMicroBatches);
    }
}

TEST(WorkloadPlans, CnnPresetsCompileToOneStagePerConvLayer)
{
    const auto hw = reram::AcceleratorConfig::paperDefault();
    for (const auto &preset : workload::cnnPresetRegistry()) {
        workload::WorkloadSpec spec;
        spec.family = workload::FamilyKind::CnnInfer;
        spec.dataset = preset.name;
        const auto plan =
            workload::familyFor(spec.family).plan(spec, hw);
        EXPECT_EQ(plan.numStages(), preset.layers.size());
        for (size_t i = 0; i < plan.numStages(); ++i) {
            EXPECT_GT(plan.scalableTimesNs[i], 0.0);
            EXPECT_GE(plan.fixedTimesNs[i], 0.0);
            EXPECT_GT(plan.crossbarsPerReplica[i], 0u);
        }
    }
    EXPECT_NE(workload::findCnnPreset(workload::defaultCnnPreset()),
              nullptr);
    EXPECT_EQ(workload::findCnnPreset("nope"), nullptr);
}

TEST(WorkloadPlans, FamiliesRejectBadSpecs)
{
    workload::WorkloadSpec spec;
    spec.family = workload::FamilyKind::GnnInfer;
    spec.dataset = "not-a-graph";
    EXPECT_NE(workload::familyFor(spec.family).validateSpec(spec),
              "");
    spec.dataset = "Cora";
    spec.microBatchSize = 0;
    EXPECT_NE(workload::familyFor(spec.family).validateSpec(spec),
              "");
    spec.microBatchSize = 64;
    EXPECT_EQ(workload::familyFor(spec.family).validateSpec(spec),
              "");
}

TEST(WorkloadPlans, EpochsMustKeepTheMicroBatchTotalIn32Bits)
{
    // The largest epochs count whose micro-batch total fits in
    // uint32_t is accepted and the next one rejected, per family.
    // Only validateSpec runs: the workloads themselves are never
    // planned.
    struct Case
    {
        workload::FamilyKind family;
        std::string dataset;
        uint64_t microBatchesPerEpoch;
    };
    auto graphEpoch = [](const std::string &name) {
        gcn::Workload w = gcn::Workload::paperDefault(name);
        w.microBatchSize = 64;
        return static_cast<uint64_t>(w.microBatchesPerEpoch());
    };
    const workload::CnnPreset &cifar =
        *workload::findCnnPreset(workload::defaultCnnPreset());
    const std::vector<Case> cases = {
        {workload::FamilyKind::GcnTrain, "ddi", graphEpoch("ddi")},
        {workload::FamilyKind::GnnInfer, "Cora", graphEpoch("Cora")},
        {workload::FamilyKind::CnnInfer, cifar.name,
         (cifar.numImages + 63) / 64},
    };
    for (const Case &c : cases) {
        workload::WorkloadSpec spec;
        spec.family = c.family;
        spec.dataset = c.dataset;
        spec.microBatchSize = 64;
        const uint64_t largest =
            std::numeric_limits<uint32_t>::max() / c.microBatchesPerEpoch;
        ASSERT_LT(largest, std::numeric_limits<uint32_t>::max());
        const workload::WorkloadFamily &family =
            workload::familyFor(c.family);
        spec.epochs = static_cast<uint32_t>(largest);
        EXPECT_EQ(family.validateSpec(spec), "") << family.name();
        spec.epochs = static_cast<uint32_t>(largest + 1);
        const std::string problem = family.validateSpec(spec);
        EXPECT_NE(problem.find("epochs"), std::string::npos)
            << family.name() << ": " << problem;
    }
}

TEST(WorkloadRunner, GcnTrainFamilyMatchesTheAcceleratorPath)
{
    const auto hw = reram::AcceleratorConfig::paperDefault();
    workload::WorkloadSpec spec;
    spec.family = workload::FamilyKind::GcnTrain;
    spec.dataset = "ddi";
    const auto w = gcn::Workload::paperDefault("ddi");
    const auto profile =
        gcn::VertexProfile::build(w.dataset, w.seed);

    for (const auto &info : sim::engineRegistry()) {
        auto system = core::makeSystem(core::SystemKind::GoPim);
        system.sim.engine = info.kind;
        const auto familyRun = workload::runFamily(spec, system, hw);
        const auto accelRun =
            core::Accelerator(hw, system).run(w, profile);
        EXPECT_EQ(core::runResultToJson(familyRun).dump(),
                  core::runResultToJson(accelRun).dump())
            << info.canonical;
    }
}

TEST(WorkloadPlansDeath, ReplicaCeilingIsRequired)
{
    workload::WorkloadSpec spec;
    spec.family = workload::FamilyKind::CnnInfer;
    spec.dataset = "mnist";
    auto costs = workload::familyFor(spec.family)
                     .plan(spec, reram::AcceleratorConfig::paperDefault());
    costs.validate();
    costs.maxUsefulReplicas = 0;
    EXPECT_DEATH(costs.validate(), "positive replica ceiling");
}

TEST(WorkloadReplay, EveryFamilyReplaysBitIdenticallyFromDisk)
{
    const auto hw = reram::AcceleratorConfig::paperDefault();
    std::vector<workload::WorkloadSpec> specs(3);
    specs[0].family = workload::FamilyKind::GcnTrain;
    specs[0].dataset = "ddi";
    specs[1].family = workload::FamilyKind::GnnInfer;
    specs[1].dataset = "Cora";
    specs[1].partition = workload::Partitioning::NnzBalanced;
    specs[2].family = workload::FamilyKind::CnnInfer;
    specs[2].dataset = "mnist";

    // Live event-driven pass with the recorder attached.
    core::SystemConfig system =
        core::makeSystem(core::SystemKind::GoPim);
    system.sim.engine = sim::EngineKind::EventDriven;
    system.sim.isaRecorder = std::make_shared<isa::StreamRecorder>();
    std::vector<core::RunResult> live;
    for (const auto &spec : specs)
        live.push_back(workload::runFamily(spec, system, hw));

    // Round-trip the bundle through an actual file.
    const std::string path =
        testing::TempDir() + "/workload_families.gpis";
    {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good());
        out << isa::encodeBundle(system.sim.isaRecorder->bundle());
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    isa::TraceBundle decoded;
    std::string error;
    ASSERT_TRUE(isa::decodeBundle(bytes, &decoded, &error)) << error;

    core::SystemConfig replaying =
        core::makeSystem(core::SystemKind::GoPim);
    replaying.sim.engine = sim::EngineKind::Replay;
    replaying.sim.engineOverride =
        std::make_shared<sim::ReplayEngine>(std::move(decoded));
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto replayed =
            workload::runFamily(specs[i], replaying, hw);
        EXPECT_EQ(replayed.makespanNs, live[i].makespanNs)
            << workload::toString(specs[i].family);
        EXPECT_EQ(replayed.energyPj, live[i].energyPj);
        EXPECT_EQ(replayed.eventsProcessed, live[i].eventsProcessed);
        EXPECT_EQ(replayed.idleFraction, live[i].idleFraction);
        EXPECT_EQ(replayed.blockedNs, live[i].blockedNs);
    }
}

TEST(ServeWorkloads, RequestSchemaCoversFamiliesAndPartitions)
{
    const serve::Request defaults;
    serve::Request out;

    auto err = serve::parseRequest(
        parseJson(R"({"workload":"gnn","dataset":"Cora",)"
                  R"("partition":"nnz"})"),
        defaults, &out);
    ASSERT_TRUE(err.ok()) << err.message;
    EXPECT_EQ(out.family, workload::FamilyKind::GnnInfer);
    EXPECT_EQ(out.partition, workload::Partitioning::NnzBalanced);

    // cnn-infer without a dataset key gets the default preset, not
    // the server's default graph.
    err = serve::parseRequest(parseJson(R"({"workload":"cnn"})"),
                              defaults, &out);
    ASSERT_TRUE(err.ok()) << err.message;
    EXPECT_EQ(out.dataset, workload::defaultCnnPreset());

    err = serve::parseRequest(
        parseJson(R"({"workload":"cnn","dataset":"zzz"})"), defaults,
        &out);
    EXPECT_EQ(err.code, "unknown_name");
    EXPECT_EQ(err.field, "dataset");
    EXPECT_NE(err.message.find("preset"), std::string::npos);

    err = serve::parseRequest(parseJson(R"({"workload":"bogus"})"),
                              defaults, &out);
    EXPECT_EQ(err.code, "unknown_name");
    EXPECT_EQ(err.field, "workload");

    err = serve::parseRequest(
        parseJson(R"({"workload":"gnn","partition":"diagonal"})"),
        defaults, &out);
    EXPECT_EQ(err.code, "unknown_name");
    EXPECT_EQ(err.field, "partition");

    // Fault knobs only make sense while training — order of keys
    // must not matter for the rejection.
    err = serve::parseRequest(
        parseJson(R"({"stuck_on_rate":0.01,"workload":"gnn"})"),
        defaults, &out);
    EXPECT_EQ(err.code, "bad_request");
    EXPECT_EQ(err.field, "stuck_on_rate");

    // Family-specific range validation surfaces as out_of_range at
    // resolve time instead of a worker fatal().
    err = serve::parseRequest(
        parseJson(R"({"workload":"gnn","micro_batch":100000})"),
        defaults, &out);
    ASSERT_TRUE(err.ok()) << err.message;
    serve::ResolvedRequest resolved;
    err = serve::resolveRequest(out, &resolved);
    EXPECT_EQ(err.code, "out_of_range");
}

TEST(ServeWorkloads, CacheKeysSeparateFamiliesAndPartitions)
{
    const serve::Request defaults;
    const auto hw = reram::AcceleratorConfig::paperDefault();
    const auto keyOf = [&](const std::string &body) {
        serve::Request req;
        auto err =
            serve::parseRequest(parseJson(body), defaults, &req);
        EXPECT_TRUE(err.ok()) << err.message;
        serve::ResolvedRequest resolved;
        err = serve::resolveRequest(req, &resolved);
        EXPECT_TRUE(err.ok()) << err.message;
        return serve::cacheKey(resolved, hw);
    };

    const auto train = keyOf(R"({"dataset":"Cora"})");
    const auto gnnRow =
        keyOf(R"({"workload":"gnn-infer","dataset":"Cora"})");
    const auto gnnNnz = keyOf(
        R"({"workload":"gnn","dataset":"Cora","partition":"nnz"})");
    const auto gnnNnzAlias =
        keyOf(R"({"partition":"nnz-balanced","dataset":"Cora",)"
              R"("workload":"gnn-infer"})");
    const auto cnn = keyOf(R"({"workload":"cnn"})");

    // Family and partitioning both key; spellings and key order do
    // not.
    EXPECT_NE(train, gnnRow);
    EXPECT_NE(gnnRow, gnnNnz);
    EXPECT_EQ(gnnNnz, gnnNnzAlias);
    EXPECT_NE(cnn, train);
    // The partitioning field must not split cache entries for
    // families that ignore it.
    EXPECT_EQ(keyOf(R"({"dataset":"Cora","partition":"nnz"})"),
              train);
}

TEST(StreamBuilder, MisuseFailsWithDistinctDiagnostics)
{
    // Three different mistakes must produce three different
    // messages, so a failing generator pinpoints its bug.
    EXPECT_DEATH(isa::StreamBuilder("empty").microBatches(4).build(),
                 "desc has no stages");
    EXPECT_DEATH(
        isa::StreamBuilder("no-mb").stage(10.0).microBatches(0).build(),
        "need at least one micro-batch");
    EXPECT_DEATH(isa::StreamBuilder("bad-retry")
                     .stage(10.0)
                     .microBatches(4)
                     .writeRetry(1.5, 0.1)
                     .build(),
                 "writeRetryProb must lie in");
}
