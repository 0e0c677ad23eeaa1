/**
 * @file
 * Unit tests for the pipeline engine: the stage sequence, the exact
 * Eq. (3)-(6) schedule (including agreement of the recurrence with the
 * closed form), the serial baseline, intra-batch draining, idle
 * accounting, and the paper's Fig. 5 worked example.
 */

#include <gtest/gtest.h>

#include "pipeline/schedule.hh"
#include "pipeline/stage.hh"

namespace gopim::pipeline {
namespace {

TEST(Stage, TrainingSequenceOrder)
{
    const auto stages = buildTrainingStages(2);
    ASSERT_EQ(stages.size(), 8u);
    // CO1 AG1 CO2 AG2 LC2 GC2 LC1 GC1 (Fig. 2).
    EXPECT_EQ(stages[0].label(), "CO1");
    EXPECT_EQ(stages[1].label(), "AG1");
    EXPECT_EQ(stages[2].label(), "CO2");
    EXPECT_EQ(stages[3].label(), "AG2");
    EXPECT_EQ(stages[4].label(), "LC2");
    EXPECT_EQ(stages[5].label(), "GC2");
    EXPECT_EQ(stages[6].label(), "LC1");
    EXPECT_EQ(stages[7].label(), "GC1");
}

TEST(Stage, FourStagesPerLayer)
{
    for (uint32_t layers : {1u, 2u, 3u, 5u})
        EXPECT_EQ(buildTrainingStages(layers).size(), 4u * layers);
}

TEST(Stage, TypePredicates)
{
    EXPECT_TRUE(mapsVertexFeatures(StageType::Aggregation));
    EXPECT_FALSE(mapsVertexFeatures(StageType::Combination));
    EXPECT_EQ(toString(StageType::LossCompute), "LC");
}

TEST(Schedule, SingleMicroBatchIsSumOfStages)
{
    const std::vector<double> times = {1.0, 6.0};
    const auto result = schedulePipelined(times, 1);
    EXPECT_DOUBLE_EQ(result.makespanNs, 7.0);
}

TEST(Schedule, RecurrenceMatchesClosedForm)
{
    // Eq. 6: T_A = sum + (B-1) * max, exact for identical jobs.
    const std::vector<double> times = {3.0, 1.0, 4.0, 1.5};
    for (uint32_t b : {1u, 2u, 5u, 32u}) {
        const auto exact = schedulePipelined(times, b);
        EXPECT_DOUBLE_EQ(exact.makespanNs,
                         pipelinedMakespanNs(times, b))
            << "B=" << b;
    }
}

TEST(Schedule, DependencyConstraintsHold)
{
    const std::vector<double> times = {2.0, 5.0, 1.0};
    const auto r = schedulePipelined(times, 4);
    for (size_t i = 0; i < times.size(); ++i) {
        for (uint32_t j = 0; j < 4; ++j) {
            const auto &w = r.windows[i][j];
            EXPECT_DOUBLE_EQ(w.endNs, w.startNs + times[i]);
            if (j > 0) { // Eq. 3
                EXPECT_GE(w.startNs, r.windows[i][j - 1].endNs);
            }
            if (i > 0) { // Eq. 4
                EXPECT_GE(w.startNs, r.windows[i - 1][j].endNs);
            }
        }
    }
}

TEST(Schedule, SerialIsProductOfBatchesAndStages)
{
    const std::vector<double> times = {2.0, 3.0};
    const auto r = scheduleSerial(times, 10);
    EXPECT_DOUBLE_EQ(r.makespanNs, 50.0);
    // Stage windows must not overlap anywhere in a serial schedule.
    EXPECT_GE(r.windows[0][1].startNs, r.windows[1][0].endNs);
}

TEST(Schedule, PipelineNeverSlowerThanSerialNeverFasterThanBottleneck)
{
    const std::vector<double> times = {1.0, 6.0, 2.0};
    const uint32_t b = 16;
    const auto pipe = schedulePipelined(times, b);
    const auto serial = scheduleSerial(times, b);
    EXPECT_LE(pipe.makespanNs, serial.makespanNs);
    EXPECT_GE(pipe.makespanNs, 6.0 * b); // bottleneck bound
}

TEST(Schedule, Figure5WorkedExample)
{
    // Fig. 5(a): two stages, times 1:6 per half micro-batch. Each
    // batch has two micro-batches, four batches shown; the paper's
    // timeline totals 52 units for the no-replica pipeline with
    // batch draining (intra-batch pipeline, 2 micro-batches/batch).
    const std::vector<double> times = {1.0, 6.0};
    const auto noReplica = scheduleIntraBatchOnly(times, 2, 4);
    EXPECT_DOUBLE_EQ(noReplica.makespanNs, 52.0);

    // Fig. 5(b): ReGraphX's 1:2 split gives stage 1 two-fold and
    // stage 2 three-fold speedups: times 0.5 and 2. Total 18 = 52-34.
    const std::vector<double> regraphx = {1.0 / 2.0, 6.0 / 3.0};
    const auto b = scheduleIntraBatchOnly(regraphx, 2, 4);
    EXPECT_DOUBLE_EQ(b.makespanNs, 52.0 - 34.0);

    // Fig. 5(c): all three spare crossbars on stage 2: times 1 and
    // 6/4. Total 16 = 52-36, beating ReGraphX.
    const std::vector<double> gopim = {1.0, 6.0 / 4.0};
    const auto c = scheduleIntraBatchOnly(gopim, 2, 4);
    EXPECT_DOUBLE_EQ(c.makespanNs, 52.0 - 36.0);
    EXPECT_LT(c.makespanNs, b.makespanNs);
}

TEST(Schedule, IntraBatchDrainsBetweenBatches)
{
    const std::vector<double> times = {1.0, 1.0};
    // 2 batches x 2 micro-batches: each batch takes 3, total 6;
    // the fully pipelined run would take 2 + 3 * 1 = 5.
    const auto drained = scheduleIntraBatchOnly(times, 2, 2);
    const auto full = schedulePipelined(times, 4);
    EXPECT_DOUBLE_EQ(drained.makespanNs, 6.0);
    EXPECT_DOUBLE_EQ(full.makespanNs, 5.0);
}

TEST(Schedule, IdleFractionsReflectImbalance)
{
    const std::vector<double> times = {1.0, 9.0};
    const auto r = schedulePipelined(times, 100);
    // Stage 2 is the bottleneck: nearly always busy. Stage 1 idles
    // roughly 90% of the time.
    EXPECT_GT(r.idleFraction[0], 0.85);
    EXPECT_LT(r.idleFraction[1], 0.05);
    EXPECT_NEAR(r.avgIdleFraction(),
                (r.idleFraction[0] + r.idleFraction[1]) / 2.0, 1e-12);
}

TEST(Schedule, BalancedStagesHaveLowIdle)
{
    const std::vector<double> times = {2.0, 2.0, 2.0};
    const auto r = schedulePipelined(times, 50);
    for (double idle : r.idleFraction)
        EXPECT_LT(idle, 0.1);
}

TEST(Schedule, VariableTimesMatchUniformWhenConstant)
{
    const std::vector<double> times = {2.0, 5.0, 1.0};
    const uint32_t b = 7;
    std::vector<std::vector<double>> grid;
    for (double t : times)
        grid.emplace_back(b, t);
    const auto uniform = schedulePipelined(times, b);
    const auto variable = schedulePipelinedVariable(grid);
    EXPECT_DOUBLE_EQ(variable.makespanNs, uniform.makespanNs);
    for (size_t i = 0; i < times.size(); ++i)
        EXPECT_NEAR(variable.idleFraction[i],
                    uniform.idleFraction[i], 1e-12);
}

TEST(Schedule, RaggedLastMicroBatchShortensMakespan)
{
    // A real epoch's last micro-batch carries |V| mod B vertices and
    // finishes faster; the closed form over-estimates.
    const std::vector<double> times = {2.0, 6.0};
    const uint32_t b = 5;
    std::vector<std::vector<double>> grid;
    for (double t : times) {
        std::vector<double> row(b, t);
        row.back() = t * 0.25; // ragged tail
        grid.push_back(std::move(row));
    }
    const auto variable = schedulePipelinedVariable(grid);
    EXPECT_LT(variable.makespanNs, pipelinedMakespanNs(times, b));
    // Still bounded below by the bottleneck's total work.
    EXPECT_GE(variable.makespanNs, 6.0 * 4 + 1.5);
}

TEST(Schedule, VariableTimesRespectDependencies)
{
    std::vector<std::vector<double>> grid = {
        {1.0, 4.0, 1.0},
        {2.0, 1.0, 3.0},
    };
    const auto r = schedulePipelinedVariable(grid);
    for (size_t i = 0; i < grid.size(); ++i)
        for (size_t j = 0; j < 3; ++j) {
            if (j > 0) {
                EXPECT_GE(r.windows[i][j].startNs,
                          r.windows[i][j - 1].endNs);
            }
            if (i > 0) {
                EXPECT_GE(r.windows[i][j].startNs,
                          r.windows[i - 1][j].endNs);
            }
        }
    // Hand-computed: stage0 ends 1,5,6; stage1: 3, 6, 9.
    EXPECT_DOUBLE_EQ(r.makespanNs, 9.0);
}

TEST(Schedule, ZeroTimeStagesAreLegal)
{
    // Fully amortized fixed costs can make a stage time 0.
    const std::vector<double> times = {0.0, 2.0};
    const auto r = schedulePipelined(times, 3);
    EXPECT_DOUBLE_EQ(r.makespanNs, 6.0);
}

} // namespace
} // namespace gopim::pipeline
