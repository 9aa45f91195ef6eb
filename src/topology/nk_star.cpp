#include "topology/nk_star.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmdiag {

NKStar::NKStar(unsigned n, unsigned k) : PermTopology(n, k) {
  if (n < 2 || n > 16) throw std::invalid_argument("NKStar: need 2 <= n <= 16");
  if (k < 1 || k >= n) throw std::invalid_argument("NKStar: need 1 <= k <= n-1");
}

TopologyInfo NKStar::info() const {
  TopologyInfo t;
  t.name = "S(" + std::to_string(n_) + "," + std::to_string(k_) + ")";
  t.family = "nk_star";
  t.num_nodes = codec_.count();
  t.degree = n_ - 1;
  t.connectivity = n_ - 1;
  t.diagnosability =
      (n_ == 3 && k_ == 2)
          ? 0
          : diagnosability_by_chang(t.num_nodes, t.degree, t.connectivity);
  return t;
}

void NKStar::moves(const PermCodec::Cursor& node,
                   std::vector<Node>& out) const {
  // i-edges: swap position 1 with position i.
  std::uint8_t a[64];
  std::copy(node.symbols, node.symbols + k_, a);
  for (unsigned i = 1; i < k_; ++i) {
    std::swap(a[0], a[i]);
    out.push_back(static_cast<Node>(codec_.rank_prefix_move(node, a, i)));
    std::swap(a[0], a[i]);
  }
  // 1-edges: substitute any unused symbol (the cursor's tail, ascending)
  // into position 1.
  for (unsigned t = k_; t < n_; ++t) {
    out.push_back(
        static_cast<Node>(codec_.rank_substitution(node, 0, node.symbols[t])));
  }
}

}  // namespace mmdiag
