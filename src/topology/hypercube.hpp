// The n-dimensional hypercube Q_n.
//
// Nodes: {0,1}^n; u ~ v iff the addresses differ in exactly one bit.
// Regular of degree n, κ = n, diagnosability n for n >= 4 (Wang [23] /
// Chang et al. [6]).
#pragma once

#include "topology/bit_cube_base.hpp"

namespace mmdiag {

class Hypercube final : public BitCubeTopology {
 public:
  explicit Hypercube(unsigned n);

  [[nodiscard]] TopologyInfo info() const override;
  void neighbors(Node u, std::vector<Node>& out) const override;

};

}  // namespace mmdiag
