/**
 * @file
 * Unit tests for the GCN engine: Table IV model configs, workload
 * derivations, the stage time model's calibrated properties (AG >> CO
 * ratios, ISU's effect on the fixed update time, ReFlip's reload
 * penalty), the functional trainer's learning behavior, and the
 * bit identity of profiles, mapping artifacts and planned stage costs
 * with the comparison sorts the linear-time degree ranking replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <tuple>

#include "common/math_utils.hh"
#include "common/rng.hh"
#include "core/accelerator.hh"
#include "core/systems.hh"
#include "gcn/model.hh"
#include "gcn/time_model.hh"
#include "gcn/trainer.hh"
#include "gcn/workload.hh"
#include "graph/generators.hh"
#include "graph/graph.hh"
#include "reram/config.hh"

namespace gopim::gcn {
namespace {

using pipeline::StageType;

TEST(Model, TableFourConfigs)
{
    const auto ddi = paperModelFor("ddi");
    EXPECT_EQ(ddi.numLayers, 2u);
    EXPECT_DOUBLE_EQ(ddi.learningRate, 0.005);
    EXPECT_EQ(ddi.inputChannels, 256u);
    EXPECT_EQ(ddi.outputChannels, 256u);

    const auto proteins = paperModelFor("proteins");
    EXPECT_EQ(proteins.numLayers, 3u);
    EXPECT_EQ(proteins.inputChannels, 8u);
    EXPECT_EQ(proteins.outputChannels, 112u);
    EXPECT_EQ(proteins.numStages(), 12u);
}

TEST(Model, LayerDims)
{
    const auto arxiv = paperModelFor("arxiv");
    EXPECT_EQ(arxiv.layerDims(1), std::make_pair(128u, 256u));
    EXPECT_EQ(arxiv.layerDims(2), std::make_pair(256u, 256u));
    EXPECT_EQ(arxiv.layerDims(3), std::make_pair(256u, 40u));
}

TEST(Workload, PaperDefaultAndMicroBatches)
{
    const auto w = Workload::paperDefault("ddi");
    EXPECT_EQ(w.microBatchSize, 64u);
    EXPECT_EQ(w.dataset.numVertices, 4267u);
    EXPECT_EQ(w.microBatchesPerEpoch(), 67u); // ceil(4267/64)
}

TEST(Workload, PolicyThetaResolution)
{
    const auto ddi = graph::DatasetCatalog::byName("ddi");
    const auto cora = graph::DatasetCatalog::byName("Cora");

    ExecutionPolicy off;
    EXPECT_DOUBLE_EQ(off.resolvedTheta(ddi), 1.0);

    ExecutionPolicy adaptive;
    adaptive.selectiveUpdate = true;
    EXPECT_DOUBLE_EQ(adaptive.resolvedTheta(ddi), 0.5);  // dense
    EXPECT_DOUBLE_EQ(adaptive.resolvedTheta(cora), 0.8); // sparse

    ExecutionPolicy fixed;
    fixed.selectiveUpdate = true;
    fixed.theta = 0.42;
    EXPECT_DOUBLE_EQ(fixed.resolvedTheta(ddi), 0.42);
}

class TimeModelTest : public ::testing::Test
{
  protected:
    TimeModelTest()
        : cfg_(reram::AcceleratorConfig::paperDefault()), model_(cfg_)
    {
    }

    StageCost
    stageCost(const std::string &dataset, StageType type, uint32_t layer,
              const ExecutionPolicy &policy = {})
    {
        const auto w = Workload::paperDefault(dataset);
        const auto profile = VertexProfile::build(w.dataset, 1);
        const auto artifacts = MappingArtifacts::build(
            profile, policy, w.dataset, cfg_.crossbar.rows);
        return model_.cost(w, policy, artifacts, {type, layer});
    }

    reram::AcceleratorConfig cfg_;
    StageTimeModel model_;
};

TEST_F(TimeModelTest, AggregationDominatesCombination)
{
    // The paper reports AG:CO ratios from single digits (ddi) up to
    // 888-1595x (products); check the ordering and rough magnitudes.
    const double coDdi =
        stageCost("ddi", StageType::Combination, 1).totalNs();
    const double agDdi =
        stageCost("ddi", StageType::Aggregation, 1).totalNs();
    EXPECT_GT(agDdi, coDdi * 2.0);
    EXPECT_LT(agDdi, coDdi * 20.0);

    const double coProducts =
        stageCost("products", StageType::Combination, 1).totalNs();
    const double agProducts =
        stageCost("products", StageType::Aggregation, 1).totalNs();
    const double ratio = agProducts / coProducts;
    EXPECT_GT(ratio, 800.0);
    EXPECT_LT(ratio, 1700.0);
}

TEST_F(TimeModelTest, TableSixFootprints)
{
    const auto co = stageCost("ddi", StageType::Combination, 1);
    const auto ag = stageCost("ddi", StageType::Aggregation, 1);
    const auto lc = stageCost("ddi", StageType::LossCompute, 2);
    const auto gc = stageCost("ddi", StageType::GradientCompute, 2);
    EXPECT_EQ(co.crossbarsPerReplica, 32u);
    EXPECT_EQ(ag.crossbarsPerReplica, 534u);
    EXPECT_EQ(lc.crossbarsPerReplica, 32u);
    EXPECT_EQ(gc.crossbarsPerReplica, 534u);
}

TEST_F(TimeModelTest, IsuReducesAggregationFixedTime)
{
    ExecutionPolicy vanilla; // index mapping, full updates

    ExecutionPolicy isu;
    isu.mapStrategy = mapping::VertexMapStrategy::Interleaved;
    isu.selectiveUpdate = true;

    const auto agVanilla =
        stageCost("ddi", StageType::Aggregation, 1, vanilla);
    const auto agIsu = stageCost("ddi", StageType::Aggregation, 1, isu);

    EXPECT_LT(agIsu.fixedNs, agVanilla.fixedNs * 0.7);
    // Compute time is unaffected by the update policy.
    EXPECT_DOUBLE_EQ(agIsu.scalableNs, agVanilla.scalableNs);
    // Fewer writes also means fewer write events for energy.
    EXPECT_LT(agIsu.rowWritesPerMb, agVanilla.rowWritesPerMb);
}

TEST_F(TimeModelTest, OsuDoesNotReduceUpdateBound)
{
    // Selective updating with index mapping (OSU): the per-crossbar
    // maximum stays near the full 64 rows because consecutive ids
    // share a crossbar and hubs cluster arbitrarily (Fig. 7).
    ExecutionPolicy osu;
    osu.selectiveUpdate = true; // index mapping stays default

    ExecutionPolicy isu = osu;
    isu.mapStrategy = mapping::VertexMapStrategy::Interleaved;

    const auto agOsu = stageCost("ddi", StageType::Aggregation, 1, osu);
    const auto agIsu = stageCost("ddi", StageType::Aggregation, 1, isu);
    EXPECT_GT(agOsu.fixedNs, agIsu.fixedNs * 1.3);
}

TEST_F(TimeModelTest, ReflipReloadPenaltyScalesWithDensity)
{
    ExecutionPolicy reflip;
    reflip.hybridReload = true;

    const auto agPlainDdi =
        stageCost("ddi", StageType::Aggregation, 1);
    const auto agReflipDdi =
        stageCost("ddi", StageType::Aggregation, 1, reflip);
    const auto agPlainCollab =
        stageCost("collab", StageType::Aggregation, 1);
    const auto agReflipCollab =
        stageCost("collab", StageType::Aggregation, 1, reflip);

    const double penaltyDdi =
        agReflipDdi.totalNs() / agPlainDdi.totalNs();
    const double penaltyCollab =
        agReflipCollab.totalNs() / agPlainCollab.totalNs();
    // ddi (avg degree 500) must hurt clearly more than collab (8.2),
    // whose reloads amortize over its far larger micro-batch count.
    EXPECT_GT(penaltyDdi, 1.5);
    EXPECT_LT(penaltyCollab, 1.1);
}

TEST_F(TimeModelTest, EdgePruningScalesAggregationCompute)
{
    ExecutionPolicy pruned;
    pruned.edgeKeepFraction = 0.5;
    const auto full = stageCost("collab", StageType::Aggregation, 1);
    const auto half =
        stageCost("collab", StageType::Aggregation, 1, pruned);
    EXPECT_NEAR(half.scalableNs, full.scalableNs * 0.5, 1e-6);
}

TEST_F(TimeModelTest, AllCostsCoversAllStages)
{
    const auto w = Workload::paperDefault("arxiv");
    const auto profile = VertexProfile::build(w.dataset, 1);
    ExecutionPolicy policy;
    const auto artifacts = MappingArtifacts::build(
        profile, policy, w.dataset, cfg_.crossbar.rows);
    const auto costs = model_.allCosts(w, policy, artifacts);
    EXPECT_EQ(costs.size(), 12u);
    for (const auto &c : costs) {
        EXPECT_GT(c.totalNs(), 0.0);
        EXPECT_GT(c.crossbarsPerReplica, 0u);
    }
}

TEST_F(TimeModelTest, FullUpdateApproxMatchesBuiltArtifacts)
{
    // Exact, not approximately equal: core::gcnTrainCosts substitutes
    // the approximation for the build under index mapping and full
    // updates.
    ExecutionPolicy policy; // no selective updating
    for (const auto &dataset : graph::DatasetCatalog::all()) {
        SCOPED_TRACE(dataset.name);
        const auto profile = VertexProfile::build(dataset, 1);
        const auto built = MappingArtifacts::build(
            profile, policy, dataset, cfg_.crossbar.rows);
        const auto approx = MappingArtifacts::fullUpdateApprox(
            dataset.numVertices, cfg_.crossbar.rows);
        EXPECT_EQ(built.assignment.numGroups, approx.assignment.numGroups);
        EXPECT_EQ(built.assignment.rowsPerGroup,
                  approx.assignment.rowsPerGroup);
        EXPECT_EQ(built.epochUpdateSlots, approx.epochUpdateSlots);
        EXPECT_EQ(built.updateFraction, approx.updateFraction);
    }
}

class TrainerTest : public ::testing::Test
{
  protected:
    TrainerTest()
    {
        Rng rng(77);
        data_ = graph::degreeCorrectedPartition(600, 3, 16.0, 2.1,
                                                0.05, rng);
    }

    graph::LabeledGraph data_;
};

TEST_F(TrainerTest, LossDecreasesAndBeatsChance)
{
    TrainerConfig cfg;
    cfg.epochs = 60;
    FunctionalTrainer trainer(data_, cfg);
    const auto result = trainer.train({});
    ASSERT_EQ(result.lossHistory.size(), 60u);
    EXPECT_LT(result.lossHistory.back(),
              result.lossHistory.front() * 0.7);
    // 3 classes -> chance is ~0.33.
    EXPECT_GT(result.bestTestAccuracy, 0.55);
}

TEST_F(TrainerTest, SelectiveUpdatingCostsLittleAccuracy)
{
    TrainerConfig cfg;
    cfg.epochs = 60;
    FunctionalTrainer trainer(data_, cfg);

    const auto full = trainer.train({});
    const auto selective = trainer.train(
        {.enabled = true, .theta = 0.5, .coldPeriod = 20});

    // Table V: the accuracy impact of ISU stays within a few points
    // (and is sometimes positive).
    EXPECT_GT(selective.bestTestAccuracy,
              full.bestTestAccuracy - 0.08);
}

TEST_F(TrainerTest, TinyThetaHurtsMore)
{
    TrainerConfig cfg;
    cfg.epochs = 60;
    FunctionalTrainer trainer(data_, cfg);
    const auto harsh = trainer.train(
        {.enabled = true, .theta = 0.02, .coldPeriod = 1000});
    const auto mild = trainer.train(
        {.enabled = true, .theta = 0.8, .coldPeriod = 20});
    EXPECT_GE(mild.bestTestAccuracy, harsh.bestTestAccuracy - 0.02);
}

TEST_F(TrainerTest, ThreeLayerModelLearns)
{
    TrainerConfig cfg;
    cfg.epochs = 60;
    cfg.numLayers = 3; // Table IV's depth for most datasets
    FunctionalTrainer trainer(data_, cfg);
    const auto result = trainer.train({});
    EXPECT_EQ(result.lossHistory.size(), 60u);
    EXPECT_LT(result.lossHistory.back(),
              result.lossHistory.front() * 0.8);
    EXPECT_GT(result.bestTestAccuracy, 0.5);
}

TEST_F(TrainerTest, ThreeLayerSelectiveUpdatingStaysClose)
{
    TrainerConfig cfg;
    cfg.epochs = 60;
    cfg.numLayers = 3;
    FunctionalTrainer trainer(data_, cfg);
    const auto full = trainer.train({});
    const auto selective = trainer.train(
        {.enabled = true, .theta = 0.5, .coldPeriod = 20});
    EXPECT_GT(selective.bestTestAccuracy,
              full.bestTestAccuracy - 0.08);
}

TEST_F(TrainerTest, SingleLayerDegeneratesToLinear)
{
    TrainerConfig cfg;
    cfg.epochs = 40;
    cfg.numLayers = 1;
    FunctionalTrainer trainer(data_, cfg);
    const auto result = trainer.train({});
    // Even a linear model on aggregated features beats chance.
    EXPECT_GT(result.bestTestAccuracy, 0.4);
}

TEST_F(TrainerTest, DropoutStillLearnsAndRegularizes)
{
    TrainerConfig cfg;
    cfg.epochs = 60;
    cfg.dropout = 0.5; // Table IV uses 0.5 for half the models
    FunctionalTrainer trainer(data_, cfg);
    const auto result = trainer.train({});
    EXPECT_GT(result.bestTestAccuracy, 0.5);

    // Dropout changes the optimization trajectory.
    TrainerConfig plain = cfg;
    plain.dropout = 0.0;
    FunctionalTrainer plainTrainer(data_, plain);
    const auto plainResult = plainTrainer.train({});
    EXPECT_NE(result.finalTrainLoss, plainResult.finalTrainLoss);
}

TEST_F(TrainerTest, DeterministicForSameConfig)
{
    TrainerConfig cfg;
    cfg.epochs = 20;
    cfg.dropout = 0.3;
    FunctionalTrainer a(data_, cfg), b(data_, cfg);
    const auto ra = a.train({});
    const auto rb = b.train({});
    EXPECT_DOUBLE_EQ(ra.finalTestAccuracy, rb.finalTestAccuracy);
    EXPECT_DOUBLE_EQ(ra.finalTrainLoss, rb.finalTrainLoss);
}

TEST(TrainerAggregate, MatchesHandComputedNormalization)
{
    // Path graph 0-1 plus isolated vertex 2.
    graph::LabeledGraph data;
    data.graph = graph::Graph::fromEdges(3, {{0, 1}});
    data.labels = {0, 1, 0};
    data.numClasses = 2;

    TrainerConfig cfg;
    FunctionalTrainer trainer(data, cfg);

    tensor::Matrix ones(3, 1, 1.0f);
    const auto agg = trainer.aggregate(ones);
    // Vertices 0,1: self (1/2) + neighbor (1/2) = 1. Vertex 2: self
    // loop only with degree 0 -> 1.
    EXPECT_NEAR(agg(0, 0), 1.0f, 1e-5f);
    EXPECT_NEAR(agg(1, 0), 1.0f, 1e-5f);
    EXPECT_NEAR(agg(2, 0), 1.0f, 1e-5f);

    // A non-uniform signal: x = [1, 0, 0] -> row1 gets 1/2 from its
    // neighbor, row0 keeps 1/2 of itself.
    tensor::Matrix x(3, 1, 0.0f);
    x(0, 0) = 1.0f;
    const auto agg2 = trainer.aggregate(x);
    EXPECT_NEAR(agg2(0, 0), 0.5f, 1e-5f);
    EXPECT_NEAR(agg2(1, 0), 0.5f, 1e-5f);
    EXPECT_NEAR(agg2(2, 0), 0.0f, 1e-5f);
}

TEST_F(TrainerTest, MasksPartitionVertices)
{
    TrainerConfig cfg;
    FunctionalTrainer trainer(data_, cfg);
    EXPECT_EQ(trainer.trainVertices().size() +
                  trainer.testVertices().size(),
              data_.graph.numVertices());
}

// ---- Bit identity with the comparison sorts ----------------------
// Test-local copies of the code the linear-time degree ranking
// replaced: every profile and mapping artifact must come out the same.

std::vector<uint32_t>
legacyRanking(const std::vector<uint32_t> &degrees)
{
    std::vector<uint32_t> order(degrees.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&degrees](uint32_t a, uint32_t b) {
                         return degrees[a] != degrees[b]
                                    ? degrees[a] > degrees[b]
                                    : a < b;
                     });
    return order;
}

VertexProfile
legacyProfile(const graph::DatasetSpec &dataset, uint64_t seed)
{
    Rng rng(seed);
    VertexProfile profile;
    profile.degrees =
        graph::DatasetCatalog::degreeSequence(dataset, 1.0, rng);
    std::sort(profile.degrees.begin(), profile.degrees.end(),
              std::greater<>());
    const size_t window = 256;
    for (size_t begin = 0; begin < profile.degrees.size();
         begin += window) {
        const size_t end =
            std::min(begin + window, profile.degrees.size());
        for (size_t i = end - begin; i > 1; --i) {
            const size_t j = rng.uniformInt(static_cast<uint64_t>(i));
            std::swap(profile.degrees[begin + i - 1],
                      profile.degrees[begin + j]);
        }
    }
    return profile;
}

MappingArtifacts
legacyArtifacts(const VertexProfile &profile, const ExecutionPolicy &policy,
                const graph::DatasetSpec &dataset, uint32_t rowsPerGroup)
{
    const auto &degrees = profile.degrees;
    const auto n = static_cast<uint32_t>(degrees.size());
    MappingArtifacts out;
    out.assignment.rowsPerGroup = rowsPerGroup;
    out.assignment.numGroups =
        static_cast<uint32_t>(ceilDiv(n, rowsPerGroup));
    out.assignment.groupOf.resize(n);
    if (policy.mapStrategy == mapping::VertexMapStrategy::Interleaved) {
        const auto order = legacyRanking(degrees);
        for (uint32_t rank = 0; rank < n; ++rank)
            out.assignment.groupOf[order[rank]] =
                rank % out.assignment.numGroups;
    } else {
        for (uint32_t v = 0; v < n; ++v)
            out.assignment.groupOf[v] = v / rowsPerGroup;
    }

    const double theta = policy.resolvedTheta(dataset);
    const auto keep = static_cast<size_t>(
        static_cast<double>(n) * theta + 0.5);
    const auto order = legacyRanking(degrees);
    out.important.assign(n, false);
    for (size_t i = 0; i < std::min<size_t>(keep, n); ++i)
        out.important[order[i]] = true;

    mapping::SelectiveUpdateParams params;
    params.theta = theta;
    params.coldPeriod = policy.coldPeriod;
    out.epochUpdateSlots = mapping::epochUpdateSlots(
        out.assignment, out.important, params);
    out.updateFraction =
        theta + (1.0 - theta) / static_cast<double>(policy.coldPeriod);
    return out;
}

class CatalogDegreeRank
    : public ::testing::TestWithParam<graph::DatasetSpec>
{
};

TEST_P(CatalogDegreeRank, ProfileAndRankingMatchComparisonSorts)
{
    const auto &dataset = GetParam();
    const auto profile = VertexProfile::build(dataset, 1);
    EXPECT_EQ(profile.degrees, legacyProfile(dataset, 1).degrees);
    EXPECT_EQ(graph::orderByDegreeDesc(profile.degrees),
              legacyRanking(profile.degrees));

    // The raw draw is in random order, so ties and long runs of
    // equal degrees exercise stability far more than the profile.
    Rng rng(1);
    const auto drawn =
        graph::DatasetCatalog::degreeSequence(dataset, 1.0, rng);
    EXPECT_EQ(graph::orderByDegreeDesc(drawn), legacyRanking(drawn));
}

/** Every StageCosts array of `got` equals `want`'s allCosts, bit for bit. */
void
expectSameCosts(const core::StageCosts &got,
                const std::vector<StageCost> &want)
{
    std::vector<double> scalable, fixed;
    std::vector<uint64_t> crossbars, activations, writes, bytes;
    for (const auto &cost : want) {
        scalable.push_back(cost.scalableNs);
        fixed.push_back(cost.fixedNs);
        crossbars.push_back(cost.crossbarsPerReplica);
        activations.push_back(cost.activationsPerMb);
        writes.push_back(cost.rowWritesPerMb);
        bytes.push_back(cost.bufferBytesPerMb);
    }
    EXPECT_EQ(got.scalableTimesNs, scalable);
    EXPECT_EQ(got.fixedTimesNs, fixed);
    EXPECT_EQ(got.crossbarsPerReplica, crossbars);
    EXPECT_EQ(got.activationsPerMb, activations);
    EXPECT_EQ(got.rowWritesPerMb, writes);
    EXPECT_EQ(got.bufferBytesPerMb, bytes);
}

TEST_P(CatalogDegreeRank, ArtifactsMatchComparisonSortsForEverySystem)
{
    // The artifacts, and the stage costs gcnTrainCosts plans without an
    // artifacts request (non-ranking policies take the fullUpdateApprox
    // shortcut and never read the profile), for every system preset
    // and for the serve layer's theta override.
    const auto workload = Workload::paperDefault(GetParam().name);
    const auto &dataset = workload.dataset;
    const auto profile = VertexProfile::build(dataset, workload.seed);
    const auto hw = reram::AcceleratorConfig::paperDefault();
    const uint32_t rows = hw.crossbar.rows;
    const StageTimeModel model(hw);
    // The artifacts depend only on the mapping, theta and cold period;
    // build and compare each distinct one once.
    std::map<std::tuple<int, double, uint32_t>, MappingArtifacts> legacy;
    for (const auto kind : core::allSystemKinds())
        for (const bool thetaOne : {false, true}) {
            auto policy = core::makeSystem(kind).policy;
            if (thetaOne) {
                policy.selectiveUpdate = true;
                policy.theta = 1.0;
            }
            SCOPED_TRACE(core::toString(kind) +
                         (thetaOne ? " theta=1" : ""));
            const std::tuple<int, double, uint32_t> key{
                static_cast<int>(policy.mapStrategy),
                policy.resolvedTheta(dataset), policy.coldPeriod};
            if (!legacy.count(key)) {
                const auto got =
                    MappingArtifacts::build(profile, policy, dataset, rows);
                const auto want =
                    legacyArtifacts(profile, policy, dataset, rows);
                EXPECT_EQ(got.assignment.groupOf, want.assignment.groupOf);
                EXPECT_EQ(got.assignment.numGroups,
                          want.assignment.numGroups);
                EXPECT_EQ(got.assignment.rowsPerGroup,
                          want.assignment.rowsPerGroup);
                EXPECT_EQ(got.important, want.important);
                EXPECT_EQ(got.epochUpdateSlots, want.epochUpdateSlots);
                EXPECT_EQ(got.updateFraction, want.updateFraction);
                legacy[key] = want;
            }
            expectSameCosts(
                core::gcnTrainCosts(
                    workload,
                    [&]() -> const VertexProfile & { return profile; },
                    policy, hw),
                model.allCosts(workload, policy, legacy.at(key)));
        }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, CatalogDegreeRank,
    ::testing::ValuesIn(graph::DatasetCatalog::all()),
    [](const ::testing::TestParamInfo<graph::DatasetSpec> &info) {
        return info.param.name;
    });

} // namespace
} // namespace gopim::gcn
