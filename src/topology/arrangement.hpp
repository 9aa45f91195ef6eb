// The arrangement graph A_{n,k} (Day & Tripathi [11]), 1 <= k <= n-1.
//
// Nodes: k-arrangements of {1..n}; u ~ v iff they differ in exactly one
// position (the differing symbol is replaced by one of the n-k unused
// symbols). Regular of degree k(n-k), κ = k(n-k), diagnosability k(n-k)
// when the Chang et al. [6] size condition holds.
//
// The paper's Theorem 7 only supports fault sets of size at most n-1 for
// arrangement graphs (the partition yields just n components), so
// default_fault_bound() is min(diagnosability, n-1).
#pragma once

#include "topology/perm_base.hpp"

namespace mmdiag {

class Arrangement final : public PermTopology {
 public:
  Arrangement(unsigned n, unsigned k);

  [[nodiscard]] TopologyInfo info() const override;
  [[nodiscard]] std::vector<unsigned> params() const override {
    return {n_, k_};
  }
  [[nodiscard]] unsigned default_fault_bound() const override;

 private:
  void moves(const PermCodec::Cursor& node,
             std::vector<Node>& out) const override;
};

}  // namespace mmdiag
