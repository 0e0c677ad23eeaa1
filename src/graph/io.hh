/**
 * @file
 * Graph persistence: text edge-list and a compact binary CSR format,
 * so users can feed their own graphs to the simulator and cache
 * generated ones between runs.
 */

#ifndef GOPIM_GRAPH_IO_HH
#define GOPIM_GRAPH_IO_HH

#include <iosfwd>
#include <string>

#include "graph/graph.hh"

namespace gopim::graph {

/**
 * Parse a text edge list: one "u v" pair per line, '#' comments and
 * blank lines ignored; vertex count is max id + 1 unless a
 * "# vertices N" header is present. fatal(), naming the line, on
 * malformed input, on an id past the largest VertexId a graph can
 * hold (2^32 - 2), and on a header over 2^32 - 1 vertices.
 */
Graph readEdgeList(std::istream &in);

/** Load an edge-list file; fatal() if it cannot be opened. */
Graph loadEdgeList(const std::string &path);

/** Write a graph as a text edge list (one undirected edge per line). */
void writeEdgeList(const Graph &g, std::ostream &out);

/**
 * Binary CSR snapshot (magic + counts + row pointers + columns),
 * little-endian, for fast reload of large generated graphs.
 */
void saveBinary(const Graph &g, const std::string &path);

/**
 * Load a binary CSR snapshot; fatal() on bad magic, truncation, a
 * vertex count over 2^32 - 1, a neighbor id past the vertex count, or
 * an edge count that disagrees with the rows.
 */
Graph loadBinary(const std::string &path);

} // namespace gopim::graph

#endif // GOPIM_GRAPH_IO_HH
