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

Graph build_graph_from_generator(std::size_t num_nodes,
                                 unsigned degree_bound,
                                 const RowGenerator& emit_rows,
                                 ThreadPool* pool) {
  // One pass: node u's row lands at u * degree_bound, and offsets[u + 1]
  // holds its length until the prefix sum below.
  std::vector<EdgeIndex> offsets(num_nodes + 1, 0);
  std::vector<Node> neighbors(num_nodes * degree_bound);
  for_each_block(num_nodes, pool, [&](std::size_t first, std::size_t last) {
    std::size_t u = first;
    const auto fail = [&u](const char* what) {
      throw std::invalid_argument(std::string(what) + " at node " +
                                  std::to_string(u));
    };
    emit_rows(static_cast<Node>(first), static_cast<Node>(last),
              [&](std::span<const Node> row) {
                if (u == last) fail("generator emitted a row past its block");
                if (row.size() > degree_bound) {
                  fail("generator row exceeds the degree bound");
                }
                const auto begin = neighbors.begin() +
                                   static_cast<std::ptrdiff_t>(u * degree_bound);
                const auto end = std::copy(row.begin(), row.end(), begin);
                std::sort(begin, end);
                if (std::adjacent_find(begin, end) != end) {
                  fail("generator produced duplicate neighbour");
                }
                for (auto it = begin; it != end; ++it) {
                  if (*it >= num_nodes) fail("neighbour out of range");
                  if (*it == u) fail("generator produced self-loop");
                }
                offsets[u + 1] = row.size();
                ++u;
              });
    if (u != last) fail("generator emitted no row");
  });
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  if (offsets[num_nodes] != neighbors.size()) {
    // Short rows: slide each row down to its offset, which is never past
    // its slot, so ascending order never overwrites an unread row.
    for (std::size_t u = 0; u < num_nodes; ++u) {
      if (offsets[u] == u * degree_bound) continue;  // nothing short yet
      const auto from =
          neighbors.begin() + static_cast<std::ptrdiff_t>(u * degree_bound);
      std::copy(from, from + static_cast<std::ptrdiff_t>(offsets[u + 1] -
                                                         offsets[u]),
                neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[u]));
    }
    neighbors.resize(offsets[num_nodes]);
    neighbors.shrink_to_fit();
  }
  // The constructor's O(E) mirror pass rejects asymmetric adjacency.
  return Graph(std::move(offsets), std::move(neighbors));
}

}  // namespace mmdiag
