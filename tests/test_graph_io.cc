/**
 * @file
 * Unit tests for graph persistence (edge list + binary CSR) and the
 * R-MAT generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "graph/generators.hh"
#include "graph/io.hh"

namespace gopim::graph {
namespace {

/** RAII temp file path. */
class TempFile
{
  public:
    explicit TempFile(const char *suffix)
        : path_(std::string("/tmp/gopim_test_") +
                std::to_string(counter_++) + suffix)
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    static inline int counter_ = 0;
    std::string path_;
};

TEST(GraphIo, EdgeListRoundTrip)
{
    Rng rng(3);
    const Graph original = erdosRenyi(200, 0.05, rng);

    std::stringstream buffer;
    writeEdgeList(original, buffer);
    const Graph loaded = readEdgeList(buffer);

    EXPECT_EQ(loaded.numVertices(), original.numVertices());
    EXPECT_EQ(loaded.numEdges(), original.numEdges());
    for (VertexId v = 0; v < original.numVertices(); ++v)
        EXPECT_EQ(loaded.degree(v), original.degree(v)) << v;
}

TEST(GraphIo, EdgeListCommentsAndHeader)
{
    std::stringstream in(
        "# a comment\n"
        "# vertices 10\n"
        "\n"
        "0 1\n"
        "1 2\n");
    const Graph g = readEdgeList(in);
    EXPECT_EQ(g.numVertices(), 10u); // header wins over max id + 1
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(GraphIo, EdgeListInfersVertexCount)
{
    std::stringstream in("0 7\n");
    const Graph g = readEdgeList(in);
    EXPECT_EQ(g.numVertices(), 8u);
}

TEST(GraphIoDeath, MalformedLineIsFatal)
{
    std::stringstream in("0 notanumber\n");
    EXPECT_DEATH(readEdgeList(in), "malformed");
}

TEST(GraphIoDeath, VertexIdsPastTheLimitAreFatal)
{
    // 2^32 used to wrap to vertex 0; 2^32 - 1 overflowed the vertex
    // count to 0 and tripped an assertion.
    std::stringstream wraps("0 1\n4294967296 1\n");
    EXPECT_DEATH(readEdgeList(wraps),
                 "line 2: vertex id 4294967296 exceeds the largest id "
                 "4294967294");
    std::stringstream overflows("# c\n1 4294967295\n");
    EXPECT_DEATH(readEdgeList(overflows), "line 2: vertex id 4294967295");
    std::stringstream header("# vertices 4294967296\n0 1\n");
    EXPECT_DEATH(readEdgeList(header),
                 "line 1: 4294967296 vertices exceed the limit");
}

/** Writes a binary graph header plus raw 64- and 32-bit words. */
void
writeBinaryGraph(const std::string &path, uint64_t numVertices,
                 uint64_t numEdges, const std::vector<uint64_t> &degrees,
                 const std::vector<VertexId> &neighbors)
{
    std::ofstream out(path, std::ios::binary);
    const uint64_t header[] = {0x47504D4743535200ULL, numVertices,
                               numEdges};
    out.write(reinterpret_cast<const char *>(header), sizeof(header));
    size_t next = 0;
    for (const uint64_t degree : degrees) {
        out.write(reinterpret_cast<const char *>(&degree),
                  sizeof(degree));
        for (uint64_t i = 0; i < degree; ++i, ++next)
            out.write(reinterpret_cast<const char *>(&neighbors[next]),
                      sizeof(VertexId));
    }
}

TEST(GraphIoDeath, BinaryCountsPastTheLimitAreFatal)
{
    // Each file ends where its bad value takes effect; an unchecked
    // header count used to size an allocation or reach an assertion.
    TempFile huge(".gpg");
    writeBinaryGraph(huge.path(), uint64_t{1} << 32, uint64_t{1} << 60,
                     {}, {});
    EXPECT_DEATH(loadBinary(huge.path()),
                 "declares 4294967296 vertices, over the limit");

    TempFile wild(".gpg");
    writeBinaryGraph(wild.path(), 3, 2, {1, 2, 1}, {1, 0, 7, 1});
    EXPECT_DEATH(loadBinary(wild.path()),
                 "row 1 names neighbor 7 of only 3 vertices");

    TempFile hugeEdges(".gpg");
    writeBinaryGraph(hugeEdges.path(), 2, uint64_t{1} << 60, {1, 1},
                     {1, 0});
    EXPECT_DEATH(loadBinary(hugeEdges.path()), "edge count mismatch");
}

TEST(GraphIo, BinaryRoundTrip)
{
    Rng rng(7);
    const auto degrees = powerLawDegreeSequence(500, 8.0, 2.1, 100,
                                                rng);
    const Graph original = chungLu(degrees, rng);

    TempFile file(".gpg");
    saveBinary(original, file.path());
    const Graph loaded = loadBinary(file.path());

    EXPECT_EQ(loaded.numVertices(), original.numVertices());
    EXPECT_EQ(loaded.numEdges(), original.numEdges());
    for (VertexId v = 0; v < original.numVertices(); ++v) {
        const auto a = original.neighbors(v);
        const auto b = loaded.neighbors(v);
        ASSERT_EQ(a.size(), b.size()) << v;
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << v;
    }
}

TEST(GraphIoDeath, BinaryBadMagicIsFatal)
{
    TempFile file(".bad");
    {
        std::ofstream out(file.path(), std::ios::binary);
        out << "definitely not a graph";
    }
    EXPECT_DEATH(loadBinary(file.path()), "not a GoPIM binary graph");
}

TEST(GraphIoDeath, MissingFileIsFatal)
{
    EXPECT_DEATH(loadEdgeList("/nonexistent/nope.el"), "cannot open");
    EXPECT_DEATH(loadBinary("/nonexistent/nope.gpg"), "cannot open");
}

TEST(Rmat, ProducesRequestedEdges)
{
    Rng rng(11);
    const Graph g = rmat(1 << 12, 30000, 0.45, 0.22, 0.22, rng);
    EXPECT_EQ(g.numVertices(), 4096u);
    // Duplicates collapse, so <= requested but in the ballpark.
    EXPECT_LE(g.numEdges(), 30000u);
    EXPECT_GT(g.numEdges(), 20000u);
}

TEST(Rmat, SkewedParametersProduceSkewedDegrees)
{
    Rng rng(13);
    const Graph skewed = rmat(1 << 12, 30000, 0.57, 0.19, 0.19, rng);
    const Graph uniform = rmat(1 << 12, 30000, 0.25, 0.25, 0.25, rng);

    auto maxDegree = [](const Graph &g) {
        uint32_t best = 0;
        for (VertexId v = 0; v < g.numVertices(); ++v)
            best = std::max(best, g.degree(v));
        return best;
    };
    EXPECT_GT(maxDegree(skewed), maxDegree(uniform) * 2);
}

TEST(Rmat, NonPowerOfTwoVertexCount)
{
    Rng rng(17);
    const Graph g = rmat(3000, 5000, 0.45, 0.22, 0.22, rng);
    EXPECT_EQ(g.numVertices(), 3000u);
    // Edges targeting ids >= 3000 were rejected but retried.
    EXPECT_GT(g.numEdges(), 3000u);
}

} // namespace
} // namespace gopim::graph
