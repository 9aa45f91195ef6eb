// Construction of CSR graphs from edge lists or neighbour generators.
#pragma once

#include <functional>
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

/// Build by asking `emit_neighbors(u, out)` for each node. The generator must
/// be symmetric (v in adj(u) iff u in adj(v)); the Graph constructor
/// validates this and throws std::invalid_argument otherwise.
///
/// With a pool, fixed blocks of nodes are generated on its lanes, so
/// `emit_neighbors` must be safe to call concurrently. The graph is the
/// same at every lane count, and so is the error: when several nodes are
/// bad, the one with the lowest id is reported.
[[nodiscard]] Graph build_graph_from_generator(
    std::size_t num_nodes,
    const std::function<void(Node, std::vector<Node>&)>& emit_neighbors,
    ThreadPool* pool = nullptr);

}  // namespace mmdiag
