#include "topology/arrangement.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmdiag {

Arrangement::Arrangement(unsigned n, unsigned k) : PermTopology(n, k) {
  if (n < 2 || n > 16) throw std::invalid_argument("Arrangement: need 2 <= n <= 16");
  if (k < 1 || k >= n) throw std::invalid_argument("Arrangement: need 1 <= k <= n-1");
}

TopologyInfo Arrangement::info() const {
  TopologyInfo t;
  t.name = "A(" + std::to_string(n_) + "," + std::to_string(k_) + ")";
  t.family = "arrangement";
  t.num_nodes = codec_.count();
  t.degree = k_ * (n_ - k_);
  t.connectivity = k_ * (n_ - k_);
  t.diagnosability = diagnosability_by_chang(t.num_nodes, t.degree, t.connectivity);
  return t;
}

unsigned Arrangement::default_fault_bound() const {
  // Theorem 7: at most n-1 faults (the split yields only n components).
  return std::min(info().diagnosability, n_ - 1);
}

void Arrangement::moves(const PermCodec::Cursor& node,
                        std::vector<Node>& out) const {
  // Substitute an unused symbol (the cursor's tail, ascending) at any
  // position.
  for (unsigned i = 0; i < k_; ++i) {
    for (unsigned t = k_; t < n_; ++t) {
      out.push_back(static_cast<Node>(
          codec_.rank_substitution(node, i, node.symbols[t])));
    }
  }
}

}  // namespace mmdiag
