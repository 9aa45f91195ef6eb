// The pancake graph P_n (Akers & Krishnamurthy [2]).
//
// Nodes: permutations of {1..n}; u ~ v iff v is u with a prefix of length
// l reversed (2 <= l <= n). Regular of degree n-1, κ = n-1,
// diagnosability n-1 for n >= 4.
#pragma once

#include "topology/perm_base.hpp"

namespace mmdiag {

class Pancake final : public PermTopology {
 public:
  explicit Pancake(unsigned n);

  [[nodiscard]] TopologyInfo info() const override;

 private:
  void moves(const PermCodec::Cursor& node,
             std::vector<Node>& out) const override;
};

}  // namespace mmdiag
