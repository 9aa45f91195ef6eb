#include "topology/star_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmdiag {

StarGraph::StarGraph(unsigned n) : PermTopology(n, n) {
  if (n < 2 || n > 12) throw std::invalid_argument("StarGraph: need 2 <= n <= 12");
}

TopologyInfo StarGraph::info() const {
  TopologyInfo t;
  t.name.append("S").append(std::to_string(n_));
  t.family = "star";
  t.num_nodes = codec_.count();
  t.degree = n_ - 1;
  t.connectivity = n_ - 1;
  t.diagnosability = diagnosability_by_chang(t.num_nodes, t.degree, t.connectivity);
  return t;
}

void StarGraph::moves(const PermCodec::Cursor& node,
                      std::vector<Node>& out) const {
  // Swap positions 1 and i: the symbols of [0, i] stay put as a set.
  std::uint8_t a[64];
  std::copy(node.symbols, node.symbols + n_, a);
  for (unsigned i = 1; i < n_; ++i) {
    std::swap(a[0], a[i]);
    out.push_back(static_cast<Node>(codec_.rank_prefix_move(node, a, i)));
    std::swap(a[0], a[i]);
  }
}

}  // namespace mmdiag
