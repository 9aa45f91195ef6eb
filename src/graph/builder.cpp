#include "graph/builder.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/thread_pool.hpp"

namespace mmdiag {
namespace {

constexpr std::size_t kBlockNodes = 4096;

/// Runs fill(first, last) over consecutive blocks of kBlockNodes node ids,
/// on the pool's lanes when one is given. A block stops at its first bad
/// node; the error of the lowest failing block, which holds the lowest
/// failing node, is rethrown, so the error does not depend on scheduling.
void for_each_block(
    std::size_t num_nodes, ThreadPool* pool,
    const std::function<void(std::size_t, std::size_t)>& fill) {
  const std::size_t blocks = (num_nodes + kBlockNodes - 1) / kBlockNodes;
  std::vector<std::exception_ptr> errors(blocks);
  const auto run = [&](unsigned, std::size_t b) {
    try {
      fill(b * kBlockNodes, std::min(num_nodes, (b + 1) * kBlockNodes));
    } catch (...) {
      errors[b] = std::current_exception();
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(blocks, run);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) run(0, b);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

Graph build_graph_from_edges(std::size_t num_nodes,
                             const std::vector<std::pair<Node, Node>>& edges) {
  std::vector<EdgeIndex> offsets(num_nodes + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u >= num_nodes || v >= num_nodes) {
      throw std::invalid_argument("edge endpoint out of range");
    }
    if (u == v) throw std::invalid_argument("self-loop not allowed");
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (std::size_t i = 1; i <= num_nodes; ++i) offsets[i] += offsets[i - 1];
  std::vector<Node> neighbors(offsets[num_nodes]);
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    neighbors[cursor[u]++] = v;
    neighbors[cursor[v]++] = u;
  }
  for (std::size_t u = 0; u < num_nodes; ++u) {
    auto first = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
    auto last = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
    std::sort(first, last);
    if (std::adjacent_find(first, last) != last) {
      throw std::invalid_argument("duplicate edge at node " + std::to_string(u));
    }
  }
  return Graph(std::move(offsets), std::move(neighbors));
}

Graph build_graph_from_generator(
    std::size_t num_nodes,
    const std::function<void(Node, std::vector<Node>&)>& emit_neighbors,
    ThreadPool* pool) {
  std::vector<EdgeIndex> offsets(num_nodes + 1, 0);
  // Pass 1: degrees; a serial prefix sum turns them into offsets.
  for_each_block(num_nodes, pool, [&](std::size_t first, std::size_t last) {
    std::vector<Node> scratch;
    for (std::size_t u = first; u < last; ++u) {
      scratch.clear();
      emit_neighbors(static_cast<Node>(u), scratch);
      offsets[u + 1] = scratch.size();
    }
  });
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  // Pass 2: each node fills its own slice of the neighbour array.
  std::vector<Node> neighbors(offsets[num_nodes]);
  for_each_block(num_nodes, pool, [&](std::size_t first, std::size_t last) {
    std::vector<Node> scratch;
    for (std::size_t u = first; u < last; ++u) {
      scratch.clear();
      emit_neighbors(static_cast<Node>(u), scratch);
      const auto fail = [u](const char* what) {
        throw std::invalid_argument(std::string(what) + " at node " +
                                    std::to_string(u));
      };
      if (scratch.size() != offsets[u + 1] - offsets[u]) {
        fail("generator changed its degree");
      }
      std::sort(scratch.begin(), scratch.end());
      if (std::adjacent_find(scratch.begin(), scratch.end()) !=
          scratch.end()) {
        fail("generator produced duplicate neighbour");
      }
      for (const Node v : scratch) {
        if (v >= num_nodes) fail("neighbour out of range");
        if (v == u) fail("generator produced self-loop");
      }
      std::copy(scratch.begin(), scratch.end(),
                neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[u]));
    }
  });
  // The constructor's O(E) mirror pass rejects asymmetric adjacency.
  return Graph(std::move(offsets), std::move(neighbors));
}

}  // namespace mmdiag
