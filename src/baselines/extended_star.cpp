#include "baselines/extended_star.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/traversal.hpp"
#include "util/bitvec.hpp"

namespace mmdiag {

bool extended_star_valid(const Graph& g, const ExtendedStar& es) {
  std::vector<Node> seen{es.root};
  for (const auto& b : es.branches) {
    if (!g.has_edge(es.root, b[0])) return false;
    for (int i = 0; i + 1 < 4; ++i) {
      if (!g.has_edge(b[i], b[i + 1])) return false;
    }
    seen.insert(seen.end(), b.begin(), b.end());
  }
  std::sort(seen.begin(), seen.end());
  return std::adjacent_find(seen.begin(), seen.end()) == seen.end();
}

ExtendedStar extended_star_hypercube(const Hypercube& topo, Node x) {
  const unsigned n = topo.dimension();
  if (n < 5) {
    // With n = 4 every branch's 4-dimension run covers all dimensions, so
    // the fourth nodes coincide.
    throw std::invalid_argument("extended_star_hypercube: need n >= 5");
  }
  ExtendedStar es;
  es.root = x;
  es.branches.resize(n);
  for (unsigned i = 0; i < n; ++i) {
    Node v = x;
    for (unsigned step = 0; step < 4; ++step) {
      v ^= Node{1} << ((i + step) % n);
      es.branches[i][step] = v;
    }
  }
  return es;
}

ExtendedStar extended_star_star_graph(const StarGraph& topo, Node x) {
  const auto info = topo.info();
  const unsigned n = static_cast<unsigned>(topo.codec().n());
  if (n < 5) throw std::invalid_argument("extended_star_star_graph: need n >= 5");
  ExtendedStar es;
  es.root = x;
  es.branches.resize(info.degree);
  std::uint8_t a[64];
  // Branch for generator index g0 in {1..n-1} (swap position 0 with g0),
  // then successively swap with g0+1, g0+2, g0+3 cycling inside {1..n-1}.
  for (unsigned g0 = 1; g0 < n; ++g0) {
    topo.codec().unrank(x, a);
    for (unsigned step = 0; step < 4; ++step) {
      const unsigned pos = 1 + (g0 - 1 + step) % (n - 1);
      std::swap(a[0], a[pos]);
      es.branches[g0 - 1][step] = static_cast<Node>(topo.codec().rank(a));
    }
  }
  return es;
}

namespace {

// Extend `path` (path[0..depth-1] fixed) to length 4 by depth-first search
// over nodes not in `used`, excluding the root. Neighbours farther from the
// root are tried first so branches flee the contested region around x.
bool extend_branch(const Graph& g, Node root, const DirtyBitset& used,
                   const std::vector<std::uint32_t>& dist,
                   std::array<Node, 4>& path, unsigned depth,
                   std::vector<Node>& on_path) {
  if (depth == 4) return true;
  std::vector<Node> candidates;
  for (const Node w : g.neighbors(path[depth - 1])) {
    if (w == root || used.contains(w)) continue;
    if (std::find(on_path.begin(), on_path.end(), w) != on_path.end()) continue;
    candidates.push_back(w);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](Node a, Node b) { return dist[a] > dist[b]; });
  for (const Node w : candidates) {
    path[depth] = w;
    on_path.push_back(w);
    if (extend_branch(g, root, used, dist, path, depth + 1, on_path)) {
      return true;
    }
    on_path.pop_back();
  }
  return false;
}

}  // namespace

std::optional<ExtendedStar> extended_star_greedy(const Graph& g, Node x,
                                                 unsigned branches) {
  const auto dist = bfs_distances(g, x);
  std::vector<Node> roots(g.neighbors(x).begin(), g.neighbors(x).end());
  // Greedy across branches with in-branch DFS backtracking; on failure,
  // rotate the root-neighbour order and retry (cheap cross-branch repair).
  for (std::size_t attempt = 0; attempt < roots.size(); ++attempt) {
    DirtyBitset used(g.num_nodes());
    used.insert(x);
    ExtendedStar es;
    es.root = x;
    for (std::size_t i = 0; i < roots.size() && es.branches.size() < branches;
         ++i) {
      const Node v1 = roots[(i + attempt) % roots.size()];
      if (used.contains(v1)) continue;
      std::array<Node, 4> path{};
      path[0] = v1;
      std::vector<Node> on_path{v1};
      if (extend_branch(g, x, used, dist, path, 1, on_path)) {
        for (const Node v : path) used.insert(v);
        es.branches.push_back(path);
      }
    }
    if (es.branches.size() >= branches) return es;
  }
  return std::nullopt;
}

}  // namespace mmdiag
