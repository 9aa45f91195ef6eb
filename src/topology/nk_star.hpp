// The (n,k)-star graph S_{n,k} (Chiang & Chen [9]), 1 <= k <= n-1.
//
// Nodes: k-arrangements of {1..n}. Edges: (i) swap position 1 with position
// i (2 <= i <= k); (ii) replace the symbol in position 1 by any symbol not
// present in the arrangement. Regular of degree n-1, κ = n-1,
// diagnosability n-1 except (n,k) = (3,2) (the paper's exclusion).
// S_{n,n-1} is isomorphic to the star graph S_n; S_{n,1} is K_n.
#pragma once

#include "topology/perm_base.hpp"

namespace mmdiag {

class NKStar final : public PermTopology {
 public:
  NKStar(unsigned n, unsigned k);

  [[nodiscard]] TopologyInfo info() const override;
  [[nodiscard]] std::vector<unsigned> params() const override {
    return {n_, k_};
  }

 private:
  void moves(const PermCodec::Cursor& node,
             std::vector<Node>& out) const override;
};

}  // namespace mmdiag
