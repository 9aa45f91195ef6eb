// Shared machinery for permutation-labelled families (stars, (n,k)-stars,
// pancakes, arrangement graphs). Nodes are k-arrangements of {1..n} indexed
// by PermCodec; the §5.2 partitions all fix the symbol in the last position.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "topology/partition.hpp"
#include "topology/topology.hpp"
#include "util/perm.hpp"

namespace mmdiag {

class PermTopology : public Topology {
 public:
  PermTopology(unsigned n, unsigned k) : n_(n), k_(k), codec_(n, k) {}

  [[nodiscard]] std::string node_label(Node u) const override {
    std::uint8_t a[64];
    codec_.unrank(u, a);
    std::string s;
    for (unsigned i = 0; i < k_; ++i) {
      if (i) s += ' ';
      s += std::to_string(a[i]);
    }
    return s;
  }

  [[nodiscard]] std::vector<std::shared_ptr<const PartitionPlan>>
  partition_plans() const override {
    // Only the single-level split exists: fixing any earlier position does
    // not induce a connected subgraph in these families (position-1 moves
    // would leave the component). For k = 2 the components are cliques
    // and never certify (CertifiedPartition.CliqueComponentsNeverCertify).
    if (k_ < 2) return {};
    return {std::make_shared<FixLastSymbolPlan>(n_, k_)};
  }

  /// Star and pancake graphs are registered by n alone; the k-parameterised
  /// families (NKStar, Arrangement) override.
  [[nodiscard]] std::vector<unsigned> params() const override { return {n_}; }

  [[nodiscard]] const PermCodec& codec() const noexcept { return codec_; }

 protected:
  unsigned n_;
  unsigned k_;
  PermCodec codec_;
};

}  // namespace mmdiag
