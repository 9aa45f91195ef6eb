// Yang's cycle-decomposition diagnosis for hypercubes [27] (Fig. 1).
//
// Decompose Q_n into 2^{n-m} node-disjoint Hamiltonian cycles of the
// sub-cubes Q_m(v) (cyclic Gray codes), m minimal with 2^m > n. Scan cycles
// until one reads 0 on every consecutive triple: a cycle longer than n with
// all-zero tests is entirely healthy (a healthy tester adjacent to a fault
// would read 1, and an all-faulty cycle would exceed |F| <= n). From the
// healthy cycle, classify outward: a healthy node u with known-healthy
// neighbour z decides any third neighbour w via the single test s_u(w, z).
// Faults are the nodes so classified faulty (equivalently N(healthy set),
// Theorem 1's argument). This is the algorithm the paper refines; we
// implement it as the comparison baseline of Theorem 2.
#pragma once

#include "core/diagnoser.hpp"
#include "graph/graph.hpp"
#include "mm/oracle.hpp"
#include "topology/hypercube.hpp"
#include "util/bitvec.hpp"

namespace mmdiag {

/// Cyclic binary-reflected Gray code: element t of the 2^m cycle.
[[nodiscard]] inline Node gray_code(Node t) noexcept { return t ^ (t >> 1); }

class YangCycleDiagnoser {
 public:
  YangCycleDiagnoser(const Hypercube& topo, const Graph& graph);

  [[nodiscard]] DiagnosisResult diagnose(const SyndromeOracle& oracle);

  /// Sub-cube dimension m of the decomposition (exposed for tests/examples).
  [[nodiscard]] unsigned subcube_dim() const noexcept { return m_; }
  [[nodiscard]] std::size_t num_cycles() const noexcept {
    return std::size_t{1} << (n_ - m_);
  }

  /// The t-th node of cycle c (Gray-code order), for examples and tests.
  [[nodiscard]] Node cycle_node(std::size_t c, Node t) const noexcept {
    return static_cast<Node>((c << m_) | gray_code(t));
  }

 private:
  [[nodiscard]] bool cycle_all_zero(const SyndromeOracle& oracle,
                                    std::size_t c) const;

  const Graph* graph_;
  unsigned n_;
  unsigned m_;
  DirtyBitset classified_;
  DirtyBitset known_healthy_;
};

}  // namespace mmdiag
