// The k-ary n-cube Q^k_n (k >= 3).
//
// Nodes: Z_k^n; u ~ v iff they differ by ±1 (mod k) in exactly one
// coordinate. Regular of degree 2n, κ = 2n (Bose et al. [5]);
// diagnosability 2n by Chang et al. [6] except for the small cases the
// paper excludes: (k,n) ∈ {(3,2),(3,3),(3,4),(4,2),(4,3),(5,2)}.
#pragma once

#include <memory>

#include "topology/topology.hpp"
#include "util/mixed_radix.hpp"

namespace mmdiag {

class KAryNCube : public Topology {
 public:
  KAryNCube(unsigned n, unsigned k);

  [[nodiscard]] TopologyInfo info() const override;
  void neighbors(Node u, std::vector<Node>& out) const override;
  [[nodiscard]] std::string node_label(Node u) const override;
  [[nodiscard]] std::vector<std::shared_ptr<const PartitionPlan>>
  partition_plans() const override;
  [[nodiscard]] std::vector<unsigned> params() const override {
    return {n_, k_};
  }

  [[nodiscard]] unsigned n() const noexcept { return n_; }
  [[nodiscard]] unsigned k() const noexcept { return k_; }

 protected:
  [[nodiscard]] bool excluded_small_case() const;

  unsigned n_;
  unsigned k_;
  TupleCodec codec_;
};

}  // namespace mmdiag
