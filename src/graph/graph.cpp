#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mmdiag {

Graph::Graph(std::vector<EdgeIndex> offsets, std::vector<Node> neighbors)
    : offsets_(std::move(offsets)), neighbors_(std::move(neighbors)) {
  if (offsets_.empty() || offsets_.front() != 0 ||
      offsets_.back() != neighbors_.size()) {
    throw std::invalid_argument("Graph: malformed CSR offsets");
  }
  const std::size_t n = offsets_.size() - 1;
  min_degree_ = n == 0 ? 0 : ~0u;
  for (std::size_t u = 0; u < n; ++u) {
    const EdgeIndex deg64 = offsets_[u + 1] - offsets_[u];
    if (deg64 > kMaxDegree) {
      throw std::invalid_argument("Graph: node " + std::to_string(u) +
                                  " has degree " + std::to_string(deg64) +
                                  ", above the supported " +
                                  std::to_string(kMaxDegree));
    }
    const auto deg = static_cast<unsigned>(deg64);
    max_degree_ = std::max(max_degree_, deg);
    min_degree_ = std::min(min_degree_, deg);
    if (!std::is_sorted(neighbors_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]),
                        neighbors_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]))) {
      throw std::invalid_argument("Graph: adjacency not sorted");
    }
  }

  // Mirror positions in one O(E) counting pass: slots of v fill in ascending
  // u because the outer loop visits u ascending and adj(v) is sorted, so the
  // k-th time v is named across the sweep, the namer sits at position k of
  // adj(v). The pass doubles as the symmetry check this class's contract
  // ("undirected") implies: the hot path trusts mirror_position() where the
  // old neighbor_position() search failed safely, so an asymmetric or
  // out-of-range CSR must be rejected here, not mis-diagnosed later.
  mirror_pos_.assign(neighbors_.size(), 0);
  std::vector<std::uint32_t> cursor(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    for (EdgeIndex e = offsets_[u]; e < offsets_[u + 1]; ++e) {
      const Node v = neighbors_[e];
      if (v >= n) {
        throw std::invalid_argument("Graph: neighbour id out of range");
      }
      const std::uint32_t q = cursor[v]++;
      if (offsets_[v] + q >= offsets_[v + 1] ||
          neighbors_[offsets_[v] + q] != static_cast<Node>(u)) {
        throw std::invalid_argument("Graph: adjacency not symmetric");
      }
      mirror_pos_[e] = static_cast<MirrorPos>(q);
    }
  }
}

int Graph::neighbor_position(Node u, Node v) const noexcept {
  const auto adj = neighbors(u);
  const auto it = std::lower_bound(adj.begin(), adj.end(), v);
  if (it == adj.end() || *it != v) return -1;
  return static_cast<int>(it - adj.begin());
}

}  // namespace mmdiag
