// The shuffle-cube SQ_n (Li–Tan–Hsu–Sung [17]), n ≡ 2 (mod 4).
//
// SQ_2 = Q_2. For n >= 6, SQ_n consists of 16 copies of SQ_{n-4} indexed by
// the top four address bits p = u_{n-1..n-4}; a node u with suffix class
// c = u_1 u_0 (its lowest two bits) gains four cross edges
//     u ~ ((p XOR q) · w)   for q in V_c,
// where V_c is a class-specific set of four nonzero 4-bit masks. Degree
// therefore grows by 4 per recursion level: deg(SQ_n) = n. κ = n.
//
// DEVIATION from [17]: the original mask table of [17]
// is not available offline. The table below is chosen to satisfy every
// property the paper's algorithm uses — n-regularity, κ = n, and the 16-way
// recursive partition — and κ(SQ_6) = 6 is verified exactly by max-flow in
// topology_props_test. Any table with these properties yields identical
// diagnosis behaviour.
#pragma once

#include <array>

#include "topology/bit_cube_base.hpp"

namespace mmdiag {

class ShuffleCube final : public BitCubeTopology {
 public:
  explicit ShuffleCube(unsigned n);  // n ≡ 2 (mod 4), 2 <= n <= 30

  [[nodiscard]] TopologyInfo info() const override;
  void neighbors(Node u, std::vector<Node>& out) const override;

  /// The cross-edge mask sets, indexed by suffix class (u_1 u_0).
  [[nodiscard]] static const std::array<std::array<unsigned, 4>, 4>& mask_table();
};

}  // namespace mmdiag
