// The syndrome: every node's comparison results over pairs of neighbours.
//
// For a node u of degree d there are d(d-1)/2 unordered neighbour pairs;
// s_u(v,w) is addressed by the *positions* of v and w in u's sorted
// adjacency list. Storage is a full d×d bit matrix per node (both (i,j) and
// (j,i) carry the result, the diagonal stays 0): ~2× the bits of the
// minimal triangular packing, but every row s_u(i, ·) is one contiguous
// d-bit run, so the diagnosis hot path reads a whole row as a single
// word-level extract instead of d strided bit gathers. total_tests() keeps
// reporting the logical count Σ d(d-1)/2 — the layout is an access-path
// choice, not a change to what the syndrome contains.
//
// The blocks sit back to back in node order. On a regular graph of degree
// d — every registry family — the layout is arithmetic: u's block starts
// at bit u·d², so a table is its bits plus the node count and d, with no
// per-node index. Only an irregular graph (test-only hub, path and cut
// graphs) keeps a prefix-sum index of block starts and degrees. The table
// stores its layout by value, never a pointer to the Graph, so it outlives
// the graph it was built from and reads against any graph of the same
// layout (laid_out_for).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "util/bitvec.hpp"
#include "util/types.hpp"

namespace mmdiag {

class Syndrome {
 public:
  explicit Syndrome(const Graph& g);

  /// s_u over adjacency positions i != j (order irrelevant).
  [[nodiscard]] bool test(Node u, unsigned i, unsigned j) const noexcept {
    return bits_.get(pair_index(u, i, j));
  }
  void set_test(Node u, unsigned i, unsigned j, bool value) noexcept {
    bits_.assign(pair_index(u, i, j), value);
    bits_.assign(pair_index(u, j, i), value);
  }

  /// The whole row s_u(i, ·) as one packed word: bit p = s_u(i, p) for every
  /// position p != i of u (bit i is 0). One contiguous extract — at most
  /// two word loads, which can only cover a row of up to 64 bits: at
  /// degree 65+ a single word cannot hold the row and extract would
  /// silently truncate it, so the requirement is asserted here and every
  /// caller (SetBuilder's word paths, BitSlicedOracle) gates on
  /// max_degree() <= 64 and falls back to per-pair test() beyond that.
  /// Rows at degree 63/64 that straddle word boundaries stay exact —
  /// pinned by tests/syndrome_test.cpp.
  [[nodiscard]] std::uint64_t row_bits(Node u, unsigned i) const noexcept {
    const std::uint64_t d = degree(u);
    if (d == 0) return 0;
    assert(d <= 64 && "row_bits: row wider than one word — use test()");
    assert(i < d && "row_bits: pivot position out of range");
    return bits_.extract(block(u) + i * d, static_cast<unsigned>(d));
  }

  /// Split row addressing for cohort readers: the (bit offset, width) of
  /// row s_u(i, ·) depends only on the graph's layout, so every syndrome on
  /// the same graph places the row identically. A caller reading the same
  /// row across many syndromes resolves the address once via row_location()
  /// and issues one raw row_bits_at() per syndrome. On a regular graph the
  /// address is u·d² + i·d, computed from two stored integers.
  struct RowLocation {
    std::uint64_t bit_offset;
    unsigned width;
  };
  [[nodiscard]] RowLocation row_location(Node u, unsigned i) const noexcept {
    const std::uint64_t d = degree(u);
    assert(d >= 1 && d <= 64 && "row_location: row wider than one word");
    assert(i < d && "row_location: pivot position out of range");
    return {block(u) + i * d, static_cast<unsigned>(d)};
  }
  [[nodiscard]] std::uint64_t row_bits_at(RowLocation loc) const noexcept {
    return bits_.extract(loc.bit_offset, loc.width);
  }

  /// Logical number of test results stored: Σ_u d(u)(d(u)-1)/2 (each
  /// unordered pair counted once, however the bits are laid out).
  [[nodiscard]] std::uint64_t total_tests() const noexcept {
    return logical_tests_;
  }
  [[nodiscard]] std::uint64_t ones() const noexcept {
    return bits_.count() / 2;  // every result is mirrored across the diagonal
  }
  /// Heap bytes: the bits alone on a regular graph, plus the index on an
  /// irregular one.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return bits_.memory_bytes() + offsets_.size() * sizeof(std::uint64_t) +
           degrees_.size() * sizeof(std::uint32_t);
  }

  /// True iff this table's layout is `g`'s: the same node count and the
  /// same degree at every node. O(1) on a regular graph.
  [[nodiscard]] bool laid_out_for(const Graph& g) const noexcept;

 private:
  // The one addressing path: where u's d×d block starts, and its d.
  [[nodiscard]] std::uint64_t block(Node u) const noexcept {
    return offsets_.empty() ? std::uint64_t{u} * degree_ * degree_
                            : offsets_[u];
  }
  [[nodiscard]] unsigned degree(Node u) const noexcept {
    return degrees_.empty() ? degree_ : degrees_[u];
  }
  [[nodiscard]] std::uint64_t pair_index(Node u, unsigned i, unsigned j) const noexcept {
    // Row-major within u's d×d block.
    return block(u) + std::uint64_t{i} * degree(u) + j;
  }

  std::size_t num_nodes_ = 0;
  std::uint32_t degree_ = 0;            // the common degree (regular graphs)
  std::vector<std::uint64_t> offsets_;  // irregular graphs only: block starts
  std::vector<std::uint32_t> degrees_;  // irregular graphs only
  std::uint64_t logical_tests_ = 0;
  BitVec bits_;
};

/// Materialise the complete syndrome produced by fault set `faults` with the
/// given faulty-tester behaviour: a healthy u reports s_u(v,w) = 1 iff v or
/// w is faulty; a faulty u reports whatever the behaviour dictates.
[[nodiscard]] Syndrome generate_syndrome(const Graph& g, const FaultSet& faults,
                                         FaultyBehavior behavior,
                                         std::uint64_t seed);

}  // namespace mmdiag
