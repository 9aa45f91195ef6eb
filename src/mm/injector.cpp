#include "mm/injector.hpp"

#include <stdexcept>

#include "graph/traversal.hpp"
#include "util/bitvec.hpp"

namespace mmdiag {

std::vector<Node> inject_uniform(std::size_t num_nodes, std::size_t count,
                                 Rng& rng) {
  if (count > num_nodes) throw std::invalid_argument("more faults than nodes");
  // Floyd's algorithm for a uniform distinct sample.
  DirtyBitset chosen(num_nodes);
  std::vector<Node> out;
  out.reserve(count);
  for (std::size_t i = num_nodes - count; i < num_nodes; ++i) {
    const auto t = static_cast<Node>(rng.below(i + 1));
    if (chosen.insert(t)) {
      out.push_back(t);
    } else {
      chosen.insert(static_cast<Node>(i));
      out.push_back(static_cast<Node>(i));
    }
  }
  return out;
}

std::vector<Node> inject_surround(const Graph& g, Node center) {
  const auto adj = g.neighbors(center);
  return {adj.begin(), adj.end()};
}

std::vector<Node> inject_clustered(const Graph& g, Node center,
                                   std::size_t count) {
  if (count > g.num_nodes()) throw std::invalid_argument("more faults than nodes");
  if (count == 0) return {};  // the ball of 0 nodes excludes even the centre
  DirtyBitset visited(g.num_nodes());
  std::vector<Node> queue{center};
  visited.insert(center);
  for (std::size_t head = 0; head < queue.size() && queue.size() < count; ++head) {
    for (const Node v : g.neighbors(queue[head])) {
      if (visited.insert(v)) {
        queue.push_back(v);
        if (queue.size() == count) break;
      }
    }
  }
  if (queue.size() < count) {
    throw std::invalid_argument("component around centre smaller than count");
  }
  return queue;
}

std::vector<Node> inject_where(std::size_t num_nodes, std::size_t count,
                               const std::function<bool(Node)>& predicate,
                               Rng& rng) {
  std::vector<Node> pool;
  for (std::size_t v = 0; v < num_nodes; ++v) {
    if (predicate(static_cast<Node>(v))) pool.push_back(static_cast<Node>(v));
  }
  if (pool.size() < count) {
    throw std::invalid_argument("predicate admits fewer nodes than requested");
  }
  // Partial Fisher–Yates over the pool.
  std::vector<Node> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + rng.below(pool.size() - i);
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

}  // namespace mmdiag
