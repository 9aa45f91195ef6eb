// Chiang–Tan-style local diagnosis baseline [8].
//
// Chiang & Tan decide each node's health from tests inside an extended star
// rooted at the node (Fig. 2), giving an O(ΔN) whole-system algorithm that
// reads (roughly) the entire syndrome table. This is a faithful-behaviour
// reconstruction with a provably sound decision rule:
//
// For branch (x, v1, v2, v3, v4) read the three black-node tests
//   t1 = s_{v1}(x, v2),  t2 = s_{v2}(v1, v3),  t3 = s_{v3}(v2, v4).
// Under hypothesis h in {x healthy, x faulty}, let m_h(t1 t2 t3) be the
// minimum number of faults among {v1..v4} consistent with the observed
// pattern. Exhausting the 8 patterns (branch nodes are disjoint across
// branches, so minima add):
//     pattern: 000 001 010 011 100 101 110 111
//     m_H    :  0   1   1   1   2   1   1   1
//     m_F    :  3   2   1   2   0   1   1   1
// Hypothesis "healthy" is locally consistent iff Σ m_H <= b, and "faulty"
// iff 1 + Σ m_F <= b, where b = #branches >= δ >= |F|. Writing a,b',c,d for
// the counts of patterns with (m_H,m_F) = (0,3),(2,0),(1,1),(1,2), both
// hypotheses holding would force 1 + 2a + d <= b' <= a — impossible — so
// exactly the true hypothesis survives. x is declared faulty iff the
// healthy hypothesis fails.
//
// Under |F| <= #branches the rule is exact; if neither/both hypotheses fit
// (possible only when |F| exceeds the bound), the diagnosis reports failure.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "baselines/extended_star.hpp"
#include "core/diagnoser.hpp"
#include "graph/graph.hpp"
#include "mm/oracle.hpp"
#include "topology/topology.hpp"

namespace mmdiag {

/// Produces the extended star rooted at x (family-specific or greedy).
using ExtendedStarProvider = std::function<ExtendedStar(Node x)>;

class ChiangTanDiagnoser {
 public:
  /// `branches` is the ES order b (>= the fault bound to be supported).
  ChiangTanDiagnoser(const Graph& graph, ExtendedStarProvider provider,
                     unsigned branches);

  /// Convenience constructors for the families Chiang & Tan illustrate.
  static ChiangTanDiagnoser for_hypercube(const Hypercube& topo,
                                          const Graph& graph);
  static ChiangTanDiagnoser for_star_graph(const StarGraph& topo,
                                           const Graph& graph);

  /// Diagnose every node locally; collects the declared-faulty set.
  [[nodiscard]] DiagnosisResult diagnose(const SyndromeOracle& oracle) const;

  /// Verdict for a single node (exposed for tests/examples).
  /// Returns 1 = faulty, 0 = healthy, -1 = locally ambiguous.
  [[nodiscard]] int diagnose_node(const SyndromeOracle& oracle, Node x) const;

  [[nodiscard]] unsigned branches() const noexcept { return branches_; }

 private:
  const Graph* graph_;
  ExtendedStarProvider provider_;
  unsigned branches_;
};

/// Communication cost of a distributed Chiang–Tan run (§6), priced on a
/// synchronous network: every node x gathers, for each of its b branches,
/// the three black-node test bits at distances 1, 2 and 3, relayed along
/// the branch (1 + 2 + 3 = 6 messages per branch), all nodes in parallel
/// in 6 pipelined rounds, then decides locally. The diagnosis itself runs
/// on the real syndrome; only the messages are priced. The measured
/// distributed Set_Builder it is compared against is
/// run_distributed_diagnosis (distributed/protocol.hpp).
struct DistributedCost {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t lookups = 0;  // syndrome reads across all nodes
  bool success = false;
};

/// Distributed Chiang–Tan on a hypercube (b = n branches): 6 rounds and
/// 6·b·N messages.
[[nodiscard]] DistributedCost distributed_chiang_tan_cost(
    const Hypercube& topo, const Graph& graph, const SyndromeOracle& oracle);

}  // namespace mmdiag
