#include "topology/pancake.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmdiag {

Pancake::Pancake(unsigned n) : PermTopology(n, n) {
  if (n < 2 || n > 12) throw std::invalid_argument("Pancake: need 2 <= n <= 12");
}

TopologyInfo Pancake::info() const {
  TopologyInfo t;
  t.name.append("P").append(std::to_string(n_));
  t.family = "pancake";
  t.num_nodes = codec_.count();
  t.degree = n_ - 1;
  t.connectivity = n_ - 1;
  t.diagnosability = diagnosability_by_chang(t.num_nodes, t.degree, t.connectivity);
  return t;
}

void Pancake::moves(const PermCodec::Cursor& node,
                    std::vector<Node>& out) const {
  // Reverse the prefix of length l: the symbols of [0, l) stay put as a set.
  std::uint8_t b[64];
  for (unsigned l = 2; l <= n_; ++l) {
    std::reverse_copy(node.symbols, node.symbols + l, b);
    out.push_back(static_cast<Node>(codec_.rank_prefix_move(node, b, l - 1)));
  }
}

}  // namespace mmdiag
