// The star graph S_n (Akers–Harel–Krishnamurthy [1]).
//
// Nodes: permutations of {1..n}; u ~ v iff v is u with positions 1 and i
// swapped (2 <= i <= n). Regular of degree n-1, κ = n-1,
// diagnosability n-1 for n >= 4 (Zheng et al. [28]).
#pragma once

#include "topology/perm_base.hpp"

namespace mmdiag {

class StarGraph final : public PermTopology {
 public:
  explicit StarGraph(unsigned n);

  [[nodiscard]] TopologyInfo info() const override;

 private:
  void moves(const PermCodec::Cursor& node,
             std::vector<Node>& out) const override;
};

}  // namespace mmdiag
