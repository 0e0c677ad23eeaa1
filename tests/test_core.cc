/**
 * @file
 * Unit tests for the core accelerator: system presets, run mechanics,
 * resource-budget fairness, and the qualitative orderings the paper's
 * evaluation depends on (GoPIM fastest, Serial slowest, ISU helping,
 * ReFlip struggling on dense graphs).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/accelerator.hh"
#include "core/harness.hh"
#include "core/report.hh"
#include "core/systems.hh"
#include "gcn/workload.hh"
#include "predictor/predictor.hh"
#include "sim/context.hh"

namespace gopim::core {
namespace {

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest() : harness_()
    {
        workload_ = gcn::Workload::paperDefault("ddi");
        profile_ =
            gcn::VertexProfile::build(workload_.dataset, workload_.seed);
    }

    RunResult
    runSystem(SystemKind kind)
    {
        Accelerator accel(harness_.hardware(), makeSystem(kind));
        return accel.run(workload_, profile_);
    }

    ComparisonHarness harness_;
    gcn::Workload workload_;
    gcn::VertexProfile profile_;
};

TEST(Systems, NamesMatchPaper)
{
    EXPECT_EQ(toString(SystemKind::Serial), "Serial");
    EXPECT_EQ(toString(SystemKind::SlimGnnLike), "SlimGNN-like");
    EXPECT_EQ(toString(SystemKind::ReGraphX), "ReGraphX");
    EXPECT_EQ(toString(SystemKind::ReFlip), "ReFlip");
    EXPECT_EQ(toString(SystemKind::GoPimVanilla), "GoPIM-Vanilla");
    EXPECT_EQ(toString(SystemKind::GoPim), "GoPIM");
}

TEST(Systems, UnknownNameHintListsEveryKind)
{
    // The fatal hint derives from allSystemKinds(), so no system can
    // go missing from it.
    for (const SystemKind kind : allSystemKinds()) {
        std::string name;
        for (const char c : toString(kind)) {
            if (c == '+')
                name += '\\';
            name += c;
        }
        EXPECT_DEATH(systemFromName("no-such-system"),
                     "[ (]" + name + "[,)]")
            << toString(kind);
    }
}

TEST(Systems, PresetKnobs)
{
    const auto serial = makeSystem(SystemKind::Serial);
    EXPECT_EQ(serial.pipelineMode, pipeline::Regime::Serial);
    EXPECT_EQ(serial.allocator, nullptr);

    const auto gopim = makeSystem(SystemKind::GoPim);
    EXPECT_EQ(gopim.pipelineMode, pipeline::Regime::IntraInterBatch);
    EXPECT_NE(gopim.allocator, nullptr);
    EXPECT_TRUE(gopim.policy.selectiveUpdate);
    EXPECT_EQ(gopim.policy.mapStrategy,
              mapping::VertexMapStrategy::Interleaved);

    const auto vanilla = makeSystem(SystemKind::GoPimVanilla);
    EXPECT_FALSE(vanilla.policy.selectiveUpdate);
    EXPECT_EQ(vanilla.policy.mapStrategy,
              mapping::VertexMapStrategy::IndexBased);

    const auto reflip = makeSystem(SystemKind::ReFlip);
    EXPECT_TRUE(reflip.policy.hybridReload);

    EXPECT_EQ(figure13Systems().size(), 6u);
    EXPECT_EQ(figure14Systems().size(), 4u);
}

TEST_F(CoreTest, RunProducesConsistentResult)
{
    const auto result = runSystem(SystemKind::GoPim);
    EXPECT_EQ(result.systemName, "GoPIM");
    EXPECT_EQ(result.datasetName, "ddi");
    EXPECT_GT(result.makespanNs, 0.0);
    EXPECT_GT(result.energyPj, 0.0);
    ASSERT_EQ(result.stages.size(), 8u); // 2-layer model
    ASSERT_EQ(result.replicas.size(), 8u);
    ASSERT_EQ(result.stageCrossbars.size(), 8u);

    uint64_t total = 0;
    for (size_t i = 0; i < result.stageCrossbars.size(); ++i) {
        EXPECT_GE(result.replicas[i], 1u);
        total += result.stageCrossbars[i];
    }
    EXPECT_EQ(total, result.totalCrossbars);
    // Fairness: within the shared 16 GB crossbar budget.
    EXPECT_LE(result.totalCrossbars,
              harness_.hardware().totalCrossbars());
}

TEST_F(CoreTest, DeterministicAcrossRuns)
{
    const auto a = runSystem(SystemKind::GoPim);
    const auto b = runSystem(SystemKind::GoPim);
    EXPECT_DOUBLE_EQ(a.makespanNs, b.makespanNs);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.replicas, b.replicas);
}

TEST_F(CoreTest, PaperOrderingOnDenseGraph)
{
    const auto serial = runSystem(SystemKind::Serial);
    const auto slim = runSystem(SystemKind::SlimGnnLike);
    const auto regraphx = runSystem(SystemKind::ReGraphX);
    const auto reflip = runSystem(SystemKind::ReFlip);
    const auto vanilla = runSystem(SystemKind::GoPimVanilla);
    const auto gopim = runSystem(SystemKind::GoPim);

    // GoPIM fastest, Serial slowest (Fig. 13a).
    EXPECT_LT(gopim.makespanNs, vanilla.makespanNs);
    EXPECT_LT(vanilla.makespanNs, slim.makespanNs);
    EXPECT_LT(slim.makespanNs, serial.makespanNs);
    EXPECT_LT(regraphx.makespanNs, serial.makespanNs);
    EXPECT_LT(gopim.makespanNs, reflip.makespanNs);

    // ReFlip suffers on the densest graph (ddi): the paper reports
    // GoPIM up to 191x over it.
    const double overReflip = reflip.makespanNs / gopim.makespanNs;
    EXPECT_GT(overReflip, 20.0);

    // Headline: hundreds-fold over Serial on ddi.
    const double overSerial = serial.makespanNs / gopim.makespanNs;
    EXPECT_GT(overSerial, 100.0);

    // Energy: GoPIM saves the most (Fig. 13b).
    EXPECT_LT(gopim.energyPj, serial.energyPj);
    EXPECT_LT(gopim.energyPj, reflip.energyPj);
}

TEST_F(CoreTest, AblationLadderMonotone)
{
    const auto serial = runSystem(SystemKind::Serial);
    const auto pp = runSystem(SystemKind::PlusPP);
    const auto isu = runSystem(SystemKind::PlusISU);
    const auto gopim = runSystem(SystemKind::GoPim);

    // Fig. 14: each technique helps.
    EXPECT_LT(pp.makespanNs, serial.makespanNs);
    EXPECT_LE(isu.makespanNs, pp.makespanNs);
    EXPECT_LT(gopim.makespanNs, isu.makespanNs);
}

TEST_F(CoreTest, IdleTimeDropsWithGoPim)
{
    const auto naive = runSystem(SystemKind::Naive);
    const auto gopim = runSystem(SystemKind::GoPim);
    // Fig. 15: replica allocation balances stage times, slashing idle.
    EXPECT_LT(gopim.avgIdleFraction, naive.avgIdleFraction * 0.7);
}

TEST_F(CoreTest, EstimateDrivenAllocationCloseToExact)
{
    Accelerator accel(harness_.hardware(),
                      makeSystem(SystemKind::GoPim));
    const auto exact = accel.run(workload_, profile_);

    // Single-replica stage-time estimates off by +/-10% must produce
    // near-identical performance (Table VII's ML-vs-profiling gap is
    // at most 4.3%). The exact single-replica times come from the
    // profiling predictor (the simulator itself).
    gcn::StageTimeModel model(harness_.hardware());
    predictor::ProfilingPredictor profiling(model);
    auto noisy = profiling.predictAllStageTimesNs(workload_);
    for (size_t i = 0; i < noisy.size(); ++i)
        noisy[i] *= (i % 2 ? 1.1 : 0.9);
    const auto est =
        accel.runWithEstimates(workload_, profile_, noisy);
    EXPECT_LT(est.makespanNs, exact.makespanNs * 1.2);
    EXPECT_GT(est.makespanNs, exact.makespanNs * 0.8);
}

TEST_F(CoreTest, SerialHasNoIdleTime)
{
    const auto serial = runSystem(SystemKind::Serial);
    // In a serial schedule each stage's crossbars idle while all
    // other stages run: idle fraction is high by construction.
    EXPECT_GT(serial.avgIdleFraction, 0.5);
}

TEST(Harness, GridAndTables)
{
    ComparisonHarness harness;
    const auto rows = harness.runGrid(
        {SystemKind::Serial, SystemKind::GoPim}, {"ddi", "Cora"});
    ASSERT_EQ(rows.size(), 2u);
    ASSERT_EQ(rows[0].results.size(), 2u);
    EXPECT_EQ(rows[0].datasetName, "ddi");
    EXPECT_EQ(rows[1].results[1].systemName, "GoPIM");

    const auto speedups = harness.speedupTable("t", rows);
    EXPECT_EQ(speedups.rows(), 2u);
    EXPECT_EQ(speedups.cols(), 3u);
    const auto energy = harness.energyTable("e", rows);
    EXPECT_EQ(energy.rows(), 2u);
}

/** The grid runGrid computes, one fresh memo-free run per cell. */
std::vector<ComparisonRow>
uncachedGrid(const std::vector<SystemKind> &systems,
             const std::vector<std::string> &datasets,
             const sim::SimContext &ctx)
{
    const auto hw = reram::AcceleratorConfig::paperDefault();
    std::vector<ComparisonRow> rows;
    for (const std::string &name : datasets) {
        ComparisonRow row{name, {}};
        const auto workload = gcn::Workload::paperDefault(name);
        for (const SystemKind kind : systems) {
            SystemConfig system = makeSystem(kind);
            system.sim = ctx;
            row.results.push_back(Accelerator(hw, system).run(workload));
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

TEST(Harness, MemoizedGridIsByteIdenticalToUncached)
{
    // The memoized path (plan cache + dataset cache + timeline memo)
    // must be invisible in the results: the serialized grid — the
    // exact bytes --json-out writes — has to match plain Accelerator
    // runs, across engines and seeds.
    const auto systems = figure13Systems();
    const std::vector<std::string> datasets = {"ddi", "Cora"};

    for (const auto kind :
         {sim::EngineKind::ClosedForm, sim::EngineKind::EventDriven,
          sim::EngineKind::Replay}) {
        sim::SimContext ctx;
        ctx.engine = kind;
        ctx.seed = 11;

        ComparisonHarness memoized(
            reram::AcceleratorConfig::paperDefault(), ctx);

        // Two sweeps on the memoized harness: the second hits the
        // caches (same prefix, sim context unchanged) and must still
        // match the cold reference byte for byte.
        const auto warmup = memoized.runGrid(systems, datasets, 2);
        const auto hot = memoized.runGrid(systems, datasets, 2);
        const auto cold = uncachedGrid(systems, datasets, ctx);
        EXPECT_GT(memoized.planCache().hits(), 0u);

        std::ostringstream hotJson, coldJson, warmupJson;
        writeGridJson(hot, hotJson);
        writeGridJson(cold, coldJson);
        writeGridJson(warmup, warmupJson);
        EXPECT_EQ(hotJson.str(), coldJson.str())
            << "engine " << sim::toString(kind);
        EXPECT_EQ(warmupJson.str(), coldJson.str())
            << "engine " << sim::toString(kind);

        // A seed change reuses the plans (the prefix excludes the
        // sim context) and still matches a cold run bit for bit.
        ctx.seed = 99;
        memoized.setSimContext(ctx);
        const auto hotReseeded = memoized.runGrid(systems, datasets, 2);
        const auto coldReseeded = uncachedGrid(systems, datasets, ctx);
        std::ostringstream hotJson2, coldJson2;
        writeGridJson(hotReseeded, hotJson2);
        writeGridJson(coldReseeded, coldJson2);
        EXPECT_EQ(hotJson2.str(), coldJson2.str())
            << "engine " << sim::toString(kind) << " reseeded";
    }
}

TEST(PlanCache, FingerprintCollisionsCannotAliasPlans)
{
    // Cache poisoning: two different configurations whose prefix
    // fingerprints collide (forced here by inserting under the same
    // fingerprint) must keep separate state — the full prefix key
    // is compared inside the bucket, so a lookup can only ever
    // return the plan inserted under its own key.
    PlanMemo cache;
    StagePlan a;
    a.totalMicroBatches = 111;
    a.stageTimesNs = {1.0, 2.0};
    StagePlan b;
    b.totalMicroBatches = 222;
    b.stageTimesNs = {9.0};

    const uint64_t fp = 0xdeadbeefcafef00dull;
    cache.insert(fp, "config-a", a);
    cache.insert(fp, "config-b", b);
    EXPECT_EQ(cache.size(), 2u);

    const StagePlan *gotA = cache.find(fp, "config-a");
    const StagePlan *gotB = cache.find(fp, "config-b");
    ASSERT_NE(gotA, nullptr);
    ASSERT_NE(gotB, nullptr);
    EXPECT_NE(gotA, gotB);
    EXPECT_EQ(gotA->totalMicroBatches, 111u);
    EXPECT_EQ(gotB->totalMicroBatches, 222u);
    EXPECT_EQ(gotB->stageTimesNs, (std::vector<double>{9.0}));

    // A third key in the same bucket misses rather than aliasing.
    EXPECT_EQ(cache.find(fp, "config-c"), nullptr);

    // Re-inserting an existing key keeps the first entry (planning
    // is deterministic; racing builders produce identical plans).
    StagePlan aAgain;
    aAgain.totalMicroBatches = 333;
    EXPECT_EQ(cache.insert(fp, "config-a", aAgain).get(), gotA);
    EXPECT_EQ(cache.find(fp, "config-a")->totalMicroBatches, 111u);
}

TEST(Harness, PlanSplitMatchesMonolithicRun)
{
    // buildPlan + executePlan is the same computation run(w, p)
    // performs; the split exists so the memoized path can cache the
    // first half. Pin the equivalence directly.
    ComparisonHarness harness;
    const auto workload = gcn::Workload::paperDefault("ddi");
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);
    Accelerator accel(harness.hardware(),
                      makeSystem(SystemKind::GoPim));
    const RunResult whole = accel.run(workload, profile);
    const StagePlan plan = accel.buildPlan(workload, profile);
    const RunResult split = accel.executePlan(plan, workload);
    EXPECT_EQ(whole.makespanNs, split.makespanNs);
    EXPECT_EQ(whole.energyPj, split.energyPj);
    EXPECT_EQ(whole.replicas, split.replicas);
    EXPECT_EQ(whole.stageTimesNs, split.stageTimesNs);
    EXPECT_EQ(whole.idleFraction, split.idleFraction);
    EXPECT_EQ(whole.totalRowWrites, split.totalRowWrites);
    // Executing one plan twice is deterministic too.
    const RunResult again = accel.executePlan(plan, workload);
    EXPECT_EQ(split.makespanNs, again.makespanNs);
    EXPECT_EQ(split.energyPj, again.energyPj);
}

TEST(HarnessDeath, PlanRunsOnlyOnItsOwnWorkload)
{
    // A plan carries the label of the workload it was built for; an
    // Accelerator refuses to execute it on another one.
    const Accelerator accel(reram::AcceleratorConfig::paperDefault(),
                            makeSystem(SystemKind::ReGraphX));
    const auto ddi = gcn::Workload::paperDefault("ddi");
    const StagePlan plan = accel.buildPlan(ddi, gcn::lazyProfile(ddi));
    EXPECT_EQ(plan.label, "ddi");
    const auto cora = gcn::Workload::paperDefault("Cora");
    EXPECT_DEATH(accel.executePlan(plan, cora),
                 "plan for 'ddi' executed on workload 'Cora'");
}

TEST(Harness, SparseGraphStillWins)
{
    // Section VII-F: on Cora, GoPIM's gains shrink but persist.
    ComparisonHarness harness;
    const auto workload = gcn::Workload::paperDefault("Cora");
    const auto serial =
        harness.runOne(SystemKind::Serial, workload);
    const auto gopim = harness.runOne(SystemKind::GoPim, workload);
    EXPECT_LT(gopim.makespanNs, serial.makespanNs);
    EXPECT_LT(gopim.energyPj, serial.energyPj);
}

// ---- Lazy planning ------------------------------------------------
// Only ranking policies (interleaved mapping or theta < 1) and fault
// wear read the vertex profile; every other plan must not ask for it.

/** A pre-built profile behind a provider that counts its calls. */
struct CountingProfile
{
    explicit CountingProfile(const gcn::Workload &workload)
        : profile(gcn::VertexProfile::build(workload.dataset,
                                            workload.seed))
    {
    }

    gcn::ProfileProvider
    provider()
    {
        return [this]() -> const gcn::VertexProfile & {
            ++calls;
            return profile;
        };
    }

    gcn::VertexProfile profile;
    size_t calls = 0;
};

/** Profile calls of one buildPlan. */
size_t
profileCalls(const SystemConfig &system, const gcn::Workload &workload)
{
    const Accelerator accel(reram::AcceleratorConfig::paperDefault(),
                            system);
    CountingProfile counting(workload);
    accel.buildPlan(workload, counting.provider());
    return counting.calls;
}

TEST(PlanLaziness, NonRankingFaultFreePlansReadNoProfile)
{
    const auto workload = gcn::Workload::paperDefault("ddi");
    for (const auto kind :
         {SystemKind::Serial, SystemKind::SlimGnnLike,
          SystemKind::ReGraphX, SystemKind::ReFlip,
          SystemKind::GoPimVanilla, SystemKind::PlusPP,
          SystemKind::Naive}) {
        SCOPED_TRACE(toString(kind));
        EXPECT_EQ(profileCalls(makeSystem(kind), workload), 0u);
    }
}

TEST(PlanLaziness, RankingOrFaultyPlansReadTheProfileOnce)
{
    const auto workload = gcn::Workload::paperDefault("ddi");
    std::vector<SystemConfig> systems = {makeSystem(SystemKind::GoPim),
                                         makeSystem(SystemKind::PlusISU)};
    // A partial theta override (the serve layer's "theta": 0.5).
    systems.push_back(makeSystem(SystemKind::ReGraphX));
    systems.back().policy.selectiveUpdate = true;
    systems.back().policy.theta = 0.5;
    for (const auto kind : allSystemKinds()) {
        systems.push_back(makeSystem(kind));
        systems.back().fault.params.stuckOnRate = 0.01;
    }
    for (const auto &system : systems) {
        SCOPED_TRACE(system.name + " theta " +
                     std::to_string(system.policy.theta) +
                     (system.fault.enabled() ? " stuck-on" : ""));
        EXPECT_EQ(profileCalls(system, workload), 1u);
    }
}

TEST(PlanLaziness, TinyGraphsCostLikeTheFullBuild)
{
    // The profile draws at least two vertices, and a theta below 1
    // that rounds to "keep every vertex" (n = 1 and 2 at 0.8) still
    // prices cold refreshes through the update fraction. Both must
    // cost exactly like the full build.
    const auto hw = reram::AcceleratorConfig::paperDefault();
    for (const uint64_t n : {1, 2, 3})
        for (const double theta : {0.0, 0.8}) {
            SCOPED_TRACE("n " + std::to_string(n) + " theta " +
                         std::to_string(theta));
            auto workload = gcn::Workload::paperDefault("Cora");
            workload.dataset.numVertices = n;
            workload.dataset.numEdges = n;
            workload.dataset.avgDegree = 1.0;
            auto policy = makeSystem(SystemKind::ReGraphX).policy;
            if (theta > 0.0) {
                policy.selectiveUpdate = true;
                policy.theta = theta;
            }
            CountingProfile counting(workload);
            const StageCosts got = gcnTrainCosts(
                workload, counting.provider(), policy, hw);
            EXPECT_EQ(counting.calls, theta > 0.0 ? 1u : 0u);
            std::vector<double> scalable, fixed;
            for (const auto &cost : gcn::StageTimeModel(hw).allCosts(
                     workload, policy,
                     gcn::MappingArtifacts::build(counting.profile,
                                                  policy,
                                                  workload.dataset,
                                                  hw.crossbar.rows))) {
                scalable.push_back(cost.scalableNs);
                fixed.push_back(cost.fixedNs);
            }
            EXPECT_EQ(got.scalableTimesNs, scalable);
            EXPECT_EQ(got.fixedTimesNs, fixed);
        }
}

} // namespace
} // namespace gopim::core
