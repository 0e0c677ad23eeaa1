/**
 * @file
 * Unit tests for the extension modules: the ReRAM device noise model,
 * result serialization (JSON/CSV), and graph structural analysis.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/json.hh"
#include "common/rng.hh"
#include "core/harness.hh"
#include "core/report.hh"
#include "graph/analysis.hh"
#include "graph/generators.hh"
#include "reram/noise.hh"
#include "tensor/init.hh"

namespace gopim {
namespace {

// ------------------------- device noise ------------------------- //

TEST(DeviceNoise, IdentityWhenDisabled)
{
    Rng rng(3);
    const auto m = tensor::uniformInit(16, 16, -1.0f, 1.0f, rng);
    reram::DeviceNoiseModel model({});
    EXPECT_EQ(model.program(m), m);
    EXPECT_DOUBLE_EQ(model.programmingRmse(m), 0.0);
}

TEST(DeviceNoise, LevelsMatchCellConfiguration)
{
    const auto cfg = reram::AcceleratorConfig::paperDefault();
    // 2 bits/cell x 2 slices = 4 bits -> 16 levels.
    EXPECT_EQ(reram::DeviceNoiseModel::levelsFor(cfg), 16u);
}

TEST(DeviceNoise, QuantizationSnapsToGrid)
{
    Rng rng(5);
    const auto m = tensor::uniformInit(32, 32, -2.0f, 2.0f, rng);
    reram::DeviceNoiseModel model({.quantLevels = 4});
    const auto q = model.program(m);

    // At 4 levels over a symmetric range there are at most 4 distinct
    // magnitude steps; verify values land on the implied grid.
    float maxAbs = 0.0f;
    for (size_t i = 0; i < m.size(); ++i)
        maxAbs = std::max(maxAbs, std::fabs(m.data()[i]));
    const float step = 2.0f * maxAbs / 3.0f;
    for (size_t i = 0; i < q.size(); ++i) {
        const float ratio = q.data()[i] / step;
        EXPECT_NEAR(ratio, std::round(ratio), 1e-4f);
    }
}

TEST(DeviceNoise, RmseGrowsWithSigma)
{
    Rng rng(7);
    const auto m = tensor::uniformInit(64, 64, -1.0f, 1.0f, rng);
    reram::DeviceNoiseModel low({.conductanceSigma = 0.03});
    reram::DeviceNoiseModel high({.conductanceSigma = 0.15});
    const double rLow = low.programmingRmse(m);
    const double rHigh = high.programmingRmse(m);
    EXPECT_GT(rLow, 0.0);
    EXPECT_GT(rHigh, rLow * 3.0);
    // Multiplicative noise: relative RMSE approximates sigma.
    EXPECT_NEAR(rLow, 0.03, 0.01);
}

TEST(DeviceNoise, MvmOutputErrorIsZeroForIdenticalWeights)
{
    Rng rng(11);
    const auto x = tensor::uniformInit(8, 16, -1.0f, 1.0f, rng);
    const auto w = tensor::uniformInit(16, 16, -1.0f, 1.0f, rng);
    EXPECT_DOUBLE_EQ(reram::mvmOutputError(x, w, w), 0.0);

    reram::DeviceNoiseModel noisy({.conductanceSigma = 0.1});
    EXPECT_GT(reram::mvmOutputError(x, w, noisy.program(w)), 0.0);
}

TEST(DeviceNoise, DeterministicPerSeed)
{
    Rng rng(9);
    const auto m = tensor::uniformInit(8, 8, -1.0f, 1.0f, rng);
    reram::DeviceNoiseModel a({.conductanceSigma = 0.1, .seed = 4});
    reram::DeviceNoiseModel b({.conductanceSigma = 0.1, .seed = 4});
    EXPECT_EQ(a.program(m), b.program(m));
}

// ------------------------- serialization ------------------------ //

class ReportTest : public ::testing::Test
{
  protected:
    ReportTest()
    {
        core::ComparisonHarness harness;
        rows_ = harness.runGrid(
            {core::SystemKind::Serial, core::SystemKind::GoPim},
            {"ddi"});
    }

    std::vector<core::ComparisonRow> rows_;
};

TEST_F(ReportTest, JsonContainsKeyFields)
{
    std::ostringstream os;
    core::writeGridJson(rows_, os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"system\": \"GoPIM\""), std::string::npos);
    EXPECT_NE(json.find("\"dataset\": \"ddi\""), std::string::npos);
    EXPECT_NE(json.find("\"makespan_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"replicas\""), std::string::npos);
    // Crude structural sanity: balanced braces/brackets.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST_F(ReportTest, CsvHasHeaderAndRows)
{
    std::ostringstream os;
    core::writeGridCsv(rows_, os);
    const std::string csv = os.str();
    EXPECT_EQ(static_cast<size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              1u + 2u); // header + two systems
    EXPECT_NE(csv.find("dataset,system"), std::string::npos);
    EXPECT_NE(csv.find("ddi,GoPIM"), std::string::npos);
}

TEST(JsonEscape, HandlesSpecials)
{
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json::escape("a\nb"), "a\\nb");
    EXPECT_EQ(json::escape("plain"), "plain");
}

// ------------------------- graph analysis ----------------------- //

TEST(Analysis, ComponentsOfDisjointCliques)
{
    // Two triangles plus one isolated vertex.
    const auto g = graph::Graph::fromEdges(
        7, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
    const auto c = graph::connectedComponents(g);
    EXPECT_EQ(c.count, 3u);
    EXPECT_EQ(c.largestSize, 3u);
    EXPECT_EQ(c.componentOf[0], c.componentOf[2]);
    EXPECT_NE(c.componentOf[0], c.componentOf[3]);
}

TEST(Analysis, ClusteringOfTriangleAndStar)
{
    const auto triangle =
        graph::Graph::fromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
    EXPECT_DOUBLE_EQ(graph::clusteringCoefficient(triangle), 1.0);

    const auto star =
        graph::Graph::fromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
    EXPECT_DOUBLE_EQ(graph::clusteringCoefficient(star), 0.0);
}

TEST(Analysis, DegreeHistogramTotals)
{
    Rng rng(11);
    const auto g = graph::erdosRenyi(500, 0.02, rng);
    const auto h = graph::degreeHistogram(g, 16);
    EXPECT_EQ(h.total(), 500u);
}

TEST(Analysis, StarIsDisassortative)
{
    graph::Graph star = graph::Graph::fromEdges(
        11, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5},
             {0, 6}, {0, 7}, {0, 8}, {0, 9}, {0, 10}});
    EXPECT_LT(graph::degreeAssortativity(star), -0.5);
}

TEST(Analysis, PowerLawExponentRecovered)
{
    Rng rng(13);
    const auto degrees =
        graph::powerLawDegreeSequence(30000, 12.0, 2.1, 5000, rng);
    const auto g = graph::chungLu(degrees, rng);
    const double alpha = graph::powerLawExponent(g, 4);
    // Chung-Lu realization + clamping blur the exponent; expect the
    // heavy-tail regime rather than the exact 2.1.
    EXPECT_GT(alpha, 1.3);
    EXPECT_LT(alpha, 3.0);
}

TEST(Analysis, RegularGraphHasNoPowerLaw)
{
    // A cycle: all degrees 2; the MLE degenerates to 0 sentinel when
    // no vertex clears dMin... with dMin=2 all qualify but log sum is
    // positive; just check it runs and is finite.
    std::vector<std::pair<graph::VertexId, graph::VertexId>> edges;
    for (uint32_t v = 0; v < 50; ++v)
        edges.push_back({v, (v + 1) % 50});
    const auto cycle = graph::Graph::fromEdges(50, edges);
    const double alpha = graph::powerLawExponent(cycle, 2);
    EXPECT_TRUE(std::isfinite(alpha));
}

} // namespace
} // namespace gopim
