// Directed syndromes — per-arc test outcomes for the PMC-family models.
//
// Under PMC and BGM every node u tests each neighbour v *individually* and
// *directionally*: the outcome of u -> v is one bit, and the reverse arc
// v -> u is a separate, independent test. Storage is therefore one bit per
// directed arc in CSR order — bit p of node u's run is the outcome of u
// testing its p-th neighbour — which shares the adjacency layout (and the
// position vocabulary: Graph::mirror_position flips an arc) with the MM*
// comparator matrix. A node never tests itself: the layout has no slot for
// a self-arc by construction.
//
// Like Syndrome, a node's whole outgoing run packs into one word for
// degree <= 64 (row_bits), which the local-diagnosis fast path and the
// bench reader use; per-arc test()/set_test stay exact at any degree. And
// like Syndrome, the layout is arithmetic on a regular graph of degree d:
// u's run starts at bit u·d, and the table holds its bits plus the node
// count and d. Only an irregular graph keeps a prefix-sum index of run
// starts. No pointer to the Graph is kept.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "util/bitvec.hpp"
#include "util/enum_names.hpp"
#include "util/types.hpp"

namespace mmdiag {

class DirectedSyndrome {
 public:
  explicit DirectedSyndrome(const Graph& g);

  /// Outcome of u testing its p-th neighbour. Precondition: p < degree(u).
  [[nodiscard]] bool test(Node u, unsigned p) const noexcept {
    return bits_.get(block(u) + p);
  }
  void set_test(Node u, unsigned p, bool value) noexcept {
    bits_.assign(block(u) + p, value);
  }

  /// All of u's outgoing outcomes as one packed word: bit p = test(u, p).
  /// Requires degree(u) <= 64 (asserted), like Syndrome::row_bits.
  [[nodiscard]] std::uint64_t row_bits(Node u) const noexcept {
    const unsigned d = degree(u);
    if (d == 0) return 0;
    assert(d <= 64 && "row_bits: row wider than one word — use test()");
    return bits_.extract(block(u), d);
  }

  /// Number of directed arcs stored: Σ_u d(u) (= 2|E|). One test per arc.
  [[nodiscard]] std::uint64_t total_tests() const noexcept {
    return bits_.size();
  }
  [[nodiscard]] std::uint64_t ones() const noexcept { return bits_.count(); }
  /// Heap bytes: the bits alone on a regular graph, plus the index on an
  /// irregular one.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return bits_.memory_bytes() + offsets_.size() * sizeof(std::uint64_t);
  }

  /// True iff this table's layout is `g`'s: the same node count and the
  /// same degree at every node. O(1) on a regular graph.
  [[nodiscard]] bool laid_out_for(const Graph& g) const noexcept;

 private:
  // The one addressing path: where u's run starts, and its length.
  [[nodiscard]] std::uint64_t block(Node u) const noexcept {
    return offsets_.empty() ? std::uint64_t{u} * degree_ : offsets_[u];
  }
  [[nodiscard]] unsigned degree(Node u) const noexcept {
    return offsets_.empty()
               ? degree_
               : static_cast<unsigned>(offsets_[u + 1] - offsets_[u]);
  }

  std::size_t num_nodes_ = 0;
  std::uint32_t degree_ = 0;            // the common degree (regular graphs)
  std::vector<std::uint64_t> offsets_;  // irregular graphs only: n+1 run starts
  BitVec bits_;
};

/// Materialise the complete directed syndrome produced by fault set `faults`
/// under `model`'s test semantics (see directed_test_result): a healthy u
/// reports each neighbour's true state; a faulty u reports per `behavior`,
/// with BGM forcing faulty-tests-faulty arcs to 1.
/// `model` must be a directed model (kPMC or kBGM; throws on kMMStar).
[[nodiscard]] DirectedSyndrome generate_directed_syndrome(
    const Graph& g, const FaultSet& faults, DiagnosisModel model,
    FaultyBehavior behavior, std::uint64_t seed);

}  // namespace mmdiag
