/**
 * @file
 * Cross-module integration tests: end-to-end runs over the full
 * dataset catalog, parameterized sweeps over micro-batch sizes and
 * thetas (property-style), and consistency between the allocator,
 * schedule, and energy accounting on real workloads.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "alloc/allocator.hh"
#include "core/accelerator.hh"
#include "core/harness.hh"
#include "core/systems.hh"
#include "gcn/workload.hh"
#include "pipeline/schedule.hh"
#include "reram/energy.hh"
#include "sim/pipeline_sim.hh"

namespace gopim::core {
namespace {

/** End-to-end run across every dataset in Fig. 13's set. */
class DatasetSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DatasetSweep, GoPimBeatsSerialEverywhere)
{
    ComparisonHarness harness;
    const auto workload = gcn::Workload::paperDefault(GetParam());
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);

    Accelerator serialAccel(harness.hardware(),
                            makeSystem(SystemKind::Serial));
    Accelerator gopimAccel(harness.hardware(),
                           makeSystem(SystemKind::GoPim));
    const auto serial = serialAccel.run(workload, profile);
    const auto gopim = gopimAccel.run(workload, profile);

    // Fig. 13a reports 10.2x-3454.3x over Serial across datasets.
    const double speedup = gopim.speedupOver(serial);
    EXPECT_GT(speedup, 5.0) << GetParam();
    EXPECT_LT(speedup, 50000.0) << GetParam();

    // Fig. 13b: GoPIM is the most energy-efficient system.
    EXPECT_GT(gopim.energySavingOver(serial), 1.0) << GetParam();

    // Budget fairness holds everywhere.
    EXPECT_LE(gopim.totalCrossbars,
              harness.hardware().totalCrossbars());
}

INSTANTIATE_TEST_SUITE_P(Figure13Datasets, DatasetSweep,
                         ::testing::Values("ddi", "collab", "proteins",
                                           "arxiv"));

/** Micro-batch scaling property (Fig. 16c). */
class MicroBatchSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(MicroBatchSweep, PipelineSpeedupGrowsWithMicroBatchCount)
{
    ComparisonHarness harness;
    auto workload = gcn::Workload::paperDefault("ddi");
    workload.microBatchSize = GetParam();
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);

    Accelerator serialAccel(harness.hardware(),
                            makeSystem(SystemKind::Serial));
    Accelerator gopimAccel(harness.hardware(),
                           makeSystem(SystemKind::GoPim));
    const auto serial = serialAccel.run(workload, profile);
    const auto gopim = gopimAccel.run(workload, profile);
    EXPECT_GT(gopim.speedupOver(serial), 3.0)
        << "micro-batch " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MicroBatchSweep,
                         ::testing::Values(16, 32, 64, 128, 256));

/** Theta sweep property: smaller theta, smaller update bound. */
class ThetaSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ThetaSweep, AggregationTimeMonotoneInTheta)
{
    const auto hw = reram::AcceleratorConfig::paperDefault();
    auto sys = makeSystem(SystemKind::GoPim);
    sys.policy.theta = GetParam();
    Accelerator accel(hw, sys);

    auto sysFull = makeSystem(SystemKind::GoPimVanilla);
    Accelerator accelFull(hw, sysFull);

    const auto workload = gcn::Workload::paperDefault("ddi");
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);
    const auto partial = accel.run(workload, profile);
    const auto full = accelFull.run(workload, profile);

    // Selective updating never runs slower than full updating.
    EXPECT_LE(partial.makespanNs, full.makespanNs * 1.001)
        << "theta " << GetParam();
    // Fewer writes means less write wear.
    EXPECT_LT(partial.totalRowWrites, full.totalRowWrites)
        << "theta " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Thetas, ThetaSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

TEST(Integration, ScheduleEnergyConsistency)
{
    // The energy model's idle integral must match the schedule's idle
    // fractions: recompute energy by hand from the run result.
    ComparisonHarness harness;
    const auto workload = gcn::Workload::paperDefault("ddi");
    const auto gopim = harness.runOne(SystemKind::GoPim, workload);

    double idleCrossbarNs = 0.0;
    for (size_t i = 0; i < gopim.stages.size(); ++i)
        idleCrossbarNs +=
            static_cast<double>(gopim.stageCrossbars[i]) *
            gopim.idleFraction[i] * gopim.makespanNs;

    reram::EnergyModel energy(harness.hardware());
    const double recomputed = energy.totalEnergyPj(
        gopim.makespanNs, gopim.totalActivations, gopim.totalRowWrites,
        gopim.totalBufferBytes, idleCrossbarNs);
    EXPECT_NEAR(recomputed, gopim.energyPj, gopim.energyPj * 1e-9);
}

TEST(Integration, AllocationNeverExceedsBudgetOnLargeGraphs)
{
    // products is the stress case: one AG replica costs ~120k
    // crossbars, so the greedy allocator must stay within budget.
    ComparisonHarness harness;
    const auto workload = gcn::Workload::paperDefault("products");
    const auto gopim = harness.runOne(SystemKind::GoPim, workload);
    EXPECT_LE(gopim.totalCrossbars,
              harness.hardware().totalCrossbars());
    // Fewer replication opportunities on huge graphs (Section VII-F):
    // Aggregation replicas stay small.
    for (size_t i = 0; i < gopim.stages.size(); ++i) {
        if (gopim.stages[i].type == pipeline::StageType::Aggregation) {
            EXPECT_LT(gopim.replicas[i], 200u);
        }
    }
}

TEST(Integration, EventDrivenSimValidatesClosedFormOnRealWorkloads)
{
    // The whole evaluation rests on the Eq. 6 closed form; the
    // discrete-event engine must reproduce it on the actual GoPIM
    // stage times of a real workload.
    ComparisonHarness harness;
    for (const char *name : {"ddi", "Cora"}) {
        const auto workload = gcn::Workload::paperDefault(name);
        const auto run =
            harness.runOne(SystemKind::GoPim, workload);
        const uint32_t b = workload.microBatchesPerEpoch();

        std::vector<sim::StationConfig> stations;
        for (double t : run.stageTimesNs)
            stations.push_back({.serviceTimeNs = t});
        const auto simmed = sim::simulatePipeline(stations, b);
        const double closed =
            pipeline::pipelinedMakespanNs(run.stageTimesNs, b);
        EXPECT_NEAR(simmed.makespanNs, closed, 1e-6 * closed)
            << name;
        EXPECT_EQ(simmed.completed, b) << name;
    }
}

TEST(Integration, EpochScalingIsLinearForSerial)
{
    ComparisonHarness harness;
    auto workload = gcn::Workload::paperDefault("ddi");
    workload.epochs = 1;
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);
    Accelerator serial(harness.hardware(),
                       makeSystem(SystemKind::Serial));
    const auto one = serial.run(workload, profile);
    workload.epochs = 3;
    const auto three = serial.run(workload, profile);
    EXPECT_NEAR(three.makespanNs, one.makespanNs * 3.0,
                one.makespanNs * 0.01);
}

TEST(Integration, InterBatchPipelineAmortizesAcrossEpochs)
{
    // GoPIM pipelines across batch boundaries: multi-epoch runs grow
    // sublinearly relative to Serial's linear scaling.
    ComparisonHarness harness;
    auto workload = gcn::Workload::paperDefault("ddi");
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);

    Accelerator gopim(harness.hardware(),
                      makeSystem(SystemKind::GoPim));
    workload.epochs = 1;
    const auto one = gopim.run(workload, profile);
    workload.epochs = 4;
    const auto four = gopim.run(workload, profile);
    EXPECT_LT(four.makespanNs, one.makespanNs * 4.0);
}

TEST(Integration, FeatureDimensionScalingSpeedupGrowthTapersOff)
{
    // Fig. 17a: GoPIM keeps its speedups as vertex feature dimensions
    // grow, but the gains taper off because larger dimensions need
    // more crossbars per replica, shrinking the replication headroom.
    ComparisonHarness harness;
    auto workload = gcn::Workload::paperDefault("ddi");
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);

    std::vector<double> speedups;
    for (uint32_t dim : {256u, 512u, 1024u, 2048u}) {
        workload.model.inputChannels = dim;
        workload.model.hiddenChannels = dim;
        workload.model.outputChannels = dim;
        workload.dataset.featureDim = dim;
        Accelerator serial(harness.hardware(),
                           makeSystem(SystemKind::Serial));
        Accelerator gopim(harness.hardware(),
                          makeSystem(SystemKind::GoPim));
        speedups.push_back(
            gopim.run(workload, profile)
                .speedupOver(serial.run(workload, profile)));
        EXPECT_GT(speedups.back(), 1.0) << "dim " << dim;
    }
    // Growth ratio between successive dimension doublings must shrink
    // (the "speedups taper off" observation of Section VII-F).
    const double earlyGrowth = speedups[1] / speedups[0];
    const double lateGrowth = speedups[3] / speedups[2];
    EXPECT_LT(lateGrowth, earlyGrowth * 1.05);
}

} // namespace
} // namespace gopim::core
