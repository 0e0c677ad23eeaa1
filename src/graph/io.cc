#include "graph/io.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace gopim::graph {

namespace {

/** Most vertices a Graph can hold: every id must fit below it. */
constexpr uint64_t kMaxVertices = std::numeric_limits<VertexId>::max();

} // namespace

Graph
readEdgeList(std::istream &in)
{
    std::vector<std::pair<VertexId, VertexId>> edges;
    uint64_t declaredVertices = 0;
    uint64_t maxVertex = 0;
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream header(line.substr(1));
            std::string word;
            header >> word;
            if (word == "vertices") {
                uint64_t n = 0;
                if (header >> n) {
                    if (n > kMaxVertices)
                        fatal("edge list line ", lineNo, ": ", n,
                              " vertices exceed the limit of ",
                              kMaxVertices);
                    declaredVertices = n;
                }
            }
            continue;
        }
        std::istringstream fields(line);
        uint64_t u = 0, v = 0;
        if (!(fields >> u >> v))
            fatal("edge list line ", lineNo, " malformed: '", line,
                  "'");
        if (std::max(u, v) >= kMaxVertices)
            fatal("edge list line ", lineNo, ": vertex id ",
                  std::max(u, v), " exceeds the largest id ",
                  kMaxVertices - 1);
        edges.emplace_back(static_cast<VertexId>(u),
                           static_cast<VertexId>(v));
        maxVertex = std::max({maxVertex, u, v});
    }
    const uint64_t numVertices = std::max<uint64_t>(
        declaredVertices, edges.empty() ? 0 : maxVertex + 1);
    return Graph::fromEdges(static_cast<VertexId>(numVertices),
                            std::move(edges));
}

Graph
loadEdgeList(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open edge list '", path, "'");
    return readEdgeList(in);
}

void
writeEdgeList(const Graph &g, std::ostream &out)
{
    out << "# vertices " << g.numVertices() << "\n";
    for (VertexId u = 0; u < g.numVertices(); ++u)
        for (VertexId v : g.neighbors(u))
            if (u <= v)
                out << u << ' ' << v << "\n";
}

namespace {

constexpr uint64_t kMagic = 0x47504D4743535200ULL; // "GPMGCSR\0"

template <typename T>
void
writePod(std::ostream &out, const T &value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readPod(std::istream &in, const char *what)
{
    T value{};
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    if (!in)
        fatal("binary graph truncated while reading ", what);
    return value;
}

} // namespace

void
saveBinary(const Graph &g, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    writePod(out, kMagic);
    writePod(out, static_cast<uint64_t>(g.numVertices()));
    writePod(out, g.numEdges());
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        const auto nbrs = g.neighbors(u);
        writePod(out, static_cast<uint64_t>(nbrs.size()));
        for (VertexId v : nbrs)
            writePod(out, v);
    }
    if (!out)
        fatal("write failure on '", path, "'");
}

Graph
loadBinary(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open binary graph '", path, "'");
    if (readPod<uint64_t>(in, "magic") != kMagic)
        fatal("'", path, "' is not a GoPIM binary graph");
    const auto numVertices = readPod<uint64_t>(in, "vertex count");
    if (numVertices > kMaxVertices)
        fatal("'", path, "' declares ", numVertices,
              " vertices, over the limit of ", kMaxVertices);
    const auto numEdges = readPod<uint64_t>(in, "edge count");

    std::vector<std::pair<VertexId, VertexId>> edges;
    for (uint64_t u = 0; u < numVertices; ++u) {
        const auto degree = readPod<uint64_t>(in, "degree");
        for (uint64_t i = 0; i < degree; ++i) {
            const auto v = readPod<VertexId>(in, "neighbor");
            if (v >= numVertices)
                fatal("'", path, "' row ", u, " names neighbor ", v,
                      " of only ", numVertices, " vertices");
            if (u <= v)
                edges.emplace_back(static_cast<VertexId>(u), v);
        }
    }
    Graph g = Graph::fromEdges(static_cast<VertexId>(numVertices),
                               std::move(edges));
    if (g.numEdges() != numEdges)
        fatal("'", path, "' edge count mismatch: header says ",
              numEdges, ", data has ", g.numEdges());
    return g;
}

} // namespace gopim::graph
