#include "graph/traversal.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/bitvec.hpp"

namespace mmdiag {

std::vector<std::uint32_t> bfs_distances(const Graph& g, Node source) {
  std::vector<std::uint32_t> dist(g.num_nodes(),
                                  std::numeric_limits<std::uint32_t>::max());
  if (g.num_nodes() == 0) return dist;  // no dist[source] slot to seed
  std::vector<Node> queue;
  queue.reserve(g.num_nodes());
  dist[source] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Node u = queue[head];
    for (const Node v : g.neighbors(u)) {
      if (dist[v] == std::numeric_limits<std::uint32_t>::max()) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

Components connected_components(const Graph& g) {
  Components comps;
  comps.id.assign(g.num_nodes(), std::numeric_limits<std::uint32_t>::max());
  std::vector<Node> queue;
  for (std::size_t s = 0; s < g.num_nodes(); ++s) {
    if (comps.id[s] != std::numeric_limits<std::uint32_t>::max()) continue;
    const auto cid = static_cast<std::uint32_t>(comps.count++);
    comps.id[s] = cid;
    queue.clear();
    queue.push_back(static_cast<Node>(s));
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const Node v : g.neighbors(queue[head])) {
        if (comps.id[v] == std::numeric_limits<std::uint32_t>::max()) {
          comps.id[v] = cid;
          queue.push_back(v);
        }
      }
    }
  }
  return comps;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(), [](std::uint32_t d) {
    return d == std::numeric_limits<std::uint32_t>::max();
  });
}

bool induced_subgraph_connected(const Graph& g, const std::vector<Node>& members) {
  if (members.empty()) throw std::invalid_argument("empty member set");
  DirtyBitset in_set(g.num_nodes());
  for (const Node v : members) in_set.insert(v);
  DirtyBitset visited(g.num_nodes());
  std::vector<Node> queue{members.front()};
  visited.insert(members.front());
  std::size_t seen = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const Node v : g.neighbors(queue[head])) {
      if (in_set.contains(v) && visited.insert(v)) {
        ++seen;
        queue.push_back(v);
      }
    }
  }
  return seen == members.size();
}

std::uint32_t eccentricity(const Graph& g, Node source) {
  const auto dist = bfs_distances(g, source);
  std::uint32_t ecc = 0;
  for (const auto d : dist) {
    if (d == std::numeric_limits<std::uint32_t>::max()) {
      throw std::logic_error("eccentricity on disconnected graph");
    }
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t diameter(const Graph& g) {
  std::uint32_t best = 0;
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    best = std::max(best, eccentricity(g, static_cast<Node>(u)));
  }
  return best;
}

}  // namespace mmdiag
