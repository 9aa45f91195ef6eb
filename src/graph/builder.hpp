// Construction of CSR graphs from edge lists or neighbour generators.
#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/types.hpp"

namespace mmdiag {

class ThreadPool;

/// Build from an undirected edge list. Self-loops are rejected; duplicate
/// edges are rejected (interconnection networks are simple graphs).
[[nodiscard]] Graph build_graph_from_edges(
    std::size_t num_nodes, const std::vector<std::pair<Node, Node>>& edges);

/// Receives one node's neighbours from a row generator, in any order.
using RowSink = std::function<void(std::span<const Node> row)>;

/// Emits the rows of nodes [first, last) in ascending node order, one
/// sink call per node.
using RowGenerator =
    std::function<void(Node first, Node last, const RowSink& sink)>;

/// Build by asking `emit_rows` for the rows of every node, once each. The
/// generator must be symmetric (v in adj(u) iff u in adj(v)); the Graph
/// constructor validates this and throws std::invalid_argument otherwise.
///
/// No row may hold more than `degree_bound` neighbours: node u's row is
/// written in place at slot u * degree_bound of one num_nodes *
/// degree_bound array, so the bound should be tight (a regular family's
/// degree). Shorter rows are compacted once after the pass.
///
/// Each row is checked in this order, and the first failure names the
/// node: above the bound, duplicate neighbour, neighbour out of range,
/// self-loop.
///
/// With a pool, fixed blocks of nodes are generated on its lanes, so
/// `emit_rows` must be safe to call concurrently on disjoint blocks. The
/// graph is the same at every lane count, and so is the error: when
/// several nodes are bad, the one with the lowest id is reported.
[[nodiscard]] Graph build_graph_from_generator(std::size_t num_nodes,
                                               unsigned degree_bound,
                                               const RowGenerator& emit_rows,
                                               ThreadPool* pool = nullptr);

}  // namespace mmdiag
