#include "graph/connectivity.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "graph/traversal.hpp"
#include "util/bitvec.hpp"

namespace mmdiag {
namespace {

// Dinic max-flow on the standard node-splitting network:
//   node u -> u_in (2u), u_out (2u+1); capacity(u_in -> u_out) = 1
//   edge {u,v} -> u_out -> v_in and v_out -> u_in with capacity "infinity".
// Max flow s_out -> t_in equals the min s-t vertex cut size.
class Dinic {
 public:
  explicit Dinic(std::size_t num_vertices) : head_(num_vertices, -1) {}

  void add_edge(int from, int to, int capacity) {
    edges_.push_back({to, head_[from], capacity});
    head_[from] = static_cast<int>(edges_.size()) - 1;
    edges_.push_back({from, head_[to], 0});
    head_[to] = static_cast<int>(edges_.size()) - 1;
  }

  int max_flow(int s, int t, int stop_at) {
    int flow = 0;
    while (flow < stop_at && bfs(s, t)) {
      cursor_ = head_;
      while (flow < stop_at) {
        const int pushed = dfs(s, t, stop_at - flow);
        if (pushed == 0) break;
        flow += pushed;
      }
    }
    return flow;
  }

  /// After a max-flow run, vertices reachable from s in the residual graph.
  [[nodiscard]] std::vector<bool> residual_reachable(int s) const {
    std::vector<bool> seen(head_.size(), false);
    std::vector<int> stack{s};
    seen[s] = true;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (int e = head_[u]; e != -1; e = edges_[e].next) {
        if (edges_[e].capacity > 0 && !seen[edges_[e].to]) {
          seen[edges_[e].to] = true;
          stack.push_back(edges_[e].to);
        }
      }
    }
    return seen;
  }

 private:
  struct Edge {
    int to;
    int next;
    int capacity;
  };

  bool bfs(int s, int t) {
    level_.assign(head_.size(), -1);
    std::queue<int> q;
    level_[s] = 0;
    q.push(s);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int e = head_[u]; e != -1; e = edges_[e].next) {
        if (edges_[e].capacity > 0 && level_[edges_[e].to] < 0) {
          level_[edges_[e].to] = level_[u] + 1;
          q.push(edges_[e].to);
        }
      }
    }
    return level_[t] >= 0;
  }

  int dfs(int u, int t, int budget) {
    if (u == t || budget == 0) return budget;
    for (int& e = cursor_[u]; e != -1; e = edges_[e].next) {
      Edge& fwd = edges_[e];
      if (fwd.capacity > 0 && level_[fwd.to] == level_[u] + 1) {
        const int pushed = dfs(fwd.to, t, std::min(budget, fwd.capacity));
        if (pushed > 0) {
          fwd.capacity -= pushed;
          edges_[e ^ 1].capacity += pushed;
          return pushed;
        }
      }
    }
    level_[u] = -1;  // dead end
    return 0;
  }

  std::vector<int> head_;
  std::vector<int> cursor_;
  std::vector<int> level_;
  std::vector<Edge> edges_;
};

constexpr int kInf = std::numeric_limits<int>::max() / 2;

Dinic build_split_network(const Graph& g) {
  Dinic dinic(2 * g.num_nodes());
  const auto n = static_cast<int>(g.num_nodes());
  for (int u = 0; u < n; ++u) {
    dinic.add_edge(2 * u, 2 * u + 1, 1);  // u_in -> u_out
    for (const Node v : g.neighbors(static_cast<Node>(u))) {
      dinic.add_edge(2 * u + 1, 2 * static_cast<int>(v), kInf);
    }
  }
  return dinic;
}

int local_connectivity_impl(const Graph& g, Node s, Node t, int stop_at) {
  Dinic dinic = build_split_network(g);
  return dinic.max_flow(2 * static_cast<int>(s) + 1, 2 * static_cast<int>(t),
                        stop_at);
}

}  // namespace

unsigned local_vertex_connectivity(const Graph& g, Node s, Node t) {
  if (s == t) throw std::invalid_argument("s == t");
  if (g.has_edge(s, t)) {
    throw std::invalid_argument("s and t adjacent: vertex cut undefined");
  }
  return static_cast<unsigned>(local_connectivity_impl(g, s, t, kInf));
}

unsigned vertex_connectivity(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (n < 2) return 0;
  if (!is_connected(g)) return 0;

  // Complete graph: no non-adjacent pair exists.
  if (g.min_degree() == n - 1) return static_cast<unsigned>(n - 1);

  // Let v0 be a minimum-degree vertex. Any minimum cut C either avoids v0
  // (then some non-neighbour t of v0 sits across C) or contains v0 (then v0
  // has neighbours on both sides, so some neighbour s of v0 and a
  // non-neighbour t of s sit across C). Enumerating {v0} ∪ N(v0) as sources
  // against all their non-neighbours is therefore exhaustive.
  Node v0 = 0;
  for (Node u = 0; u < n; ++u) {
    if (g.degree(u) < g.degree(v0)) v0 = u;
  }
  int best = static_cast<int>(g.min_degree());  // κ ≤ min degree
  std::vector<Node> sources{v0};
  for (const Node u : g.neighbors(v0)) sources.push_back(u);
  for (const Node s : sources) {
    for (Node t = 0; t < n; ++t) {
      if (t == s || g.has_edge(s, t)) continue;
      best = std::min(best, local_connectivity_impl(g, s, t, best));
      if (best == 0) return 0;
    }
  }
  return static_cast<unsigned>(best);
}

std::vector<Node> min_vertex_cut(const Graph& g, Node s, Node t) {
  if (s == t || g.has_edge(s, t)) return {};
  Dinic dinic = build_split_network(g);
  dinic.max_flow(2 * static_cast<int>(s) + 1, 2 * static_cast<int>(t), kInf);
  const auto reach = dinic.residual_reachable(2 * static_cast<int>(s) + 1);
  // A node is in the cut iff its in-node is reachable but its out-node is not
  // (the unit splitter edge is saturated across the cut).
  std::vector<Node> cut;
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    if (reach[2 * u] && !reach[2 * u + 1]) cut.push_back(static_cast<Node>(u));
  }
  return cut;
}

bool is_articulation_set(const Graph& g, const std::vector<Node>& cut) {
  DirtyBitset removed(g.num_nodes());
  for (const Node v : cut) removed.insert(v);
  // Find a surviving start node.
  Node start = kNoNode;
  std::size_t survivors = 0;
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    if (!removed.contains(static_cast<Node>(u))) {
      ++survivors;
      if (start == kNoNode) start = static_cast<Node>(u);
    }
  }
  if (survivors == 0) {
    throw std::invalid_argument("cut removes every node");
  }
  DirtyBitset visited(g.num_nodes());
  std::vector<Node> queue{start};
  visited.insert(start);
  std::size_t seen = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const Node v : g.neighbors(queue[head])) {
      if (!removed.contains(v) && visited.insert(v)) {
        ++seen;
        queue.push_back(v);
      }
    }
  }
  return seen != survivors;
}

}  // namespace mmdiag
