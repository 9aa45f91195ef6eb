// Shared machinery for permutation-labelled families (stars, (n,k)-stars,
// pancakes, arrangement graphs). Nodes are k-arrangements of {1..n} indexed
// by PermCodec; the §5.2 partitions all fix the symbol in the last position.
//
// Each family defines its edges once, as moves(): the neighbour ranks of
// one decoded node, ranked from that node's own Lehmer digits. A move that
// rewrites positions [0, i] and keeps their symbols (star swap, pancake
// flip, (n,k)-star i-edge) leaves every later digit as it was; a
// substitution at position i ((n,k)-star 1-edge, arrangement edge) moves
// each later digit by one compare. neighbors(u) unranks u and runs
// moves(); emit_rows() unranks the first node of a block and steps the
// codec's odometer to each next node, so the CSR build and single-node
// callers run the same routine.
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

  void neighbors(Node u, std::vector<Node>& out) const final;
  void emit_rows(Node first, Node last, const RowSink& sink) const final;

 protected:
  /// Appends the ranks of the neighbours of `node` to out.
  virtual void moves(const PermCodec::Cursor& node,
                     std::vector<Node>& out) const = 0;

  unsigned n_;
  unsigned k_;
  PermCodec codec_;
};

}  // namespace mmdiag
