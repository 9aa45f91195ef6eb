// The distributed Set_Builder diagnosis protocol (§6 "further research").
//
// Every node runs the same program; only link-local messages and the node's
// own comparison results are used. The run proceeds in stages, each executed
// to quiescence on the synchronous network:
//
//   1. kProbe    — every partition component concurrently grows its
//                  restricted Set_Builder tree: members OFFER membership to
//                  neighbours whose pair test (against the member's parent)
//                  read 0; a joiner ACKs the least offerer, which thereby
//                  learns it is an internal node.
//   2. kCount    — convergecast up each tree: leaves send COUNT(0); internal
//                  nodes add 1; each seed learns its tree's internal-node
//                  count and certifies if it exceeds δ.
//   3. kElect    — certified seeds flood their id; everyone forwards the
//                  minimum seen; the surviving seed wins.
//   4. kBuild    — the winning seed rebuilds unrestricted; joiners announce
//                  JOINED to all neighbours so that members learn which
//                  neighbours stayed outside U_r.
//   5. kReport   — convergecast of fault reports: members forward the ids of
//                  non-JOINED neighbours (deduplicated per subtree) to the
//                  winner, which assembles F = N(U_r).
//
// Stage transitions are driven by the harness at network quiescence; a real
// deployment would use static round bounds instead (same message counts,
// slightly more rounds, since each stage waits out its worst-case bound).
// Membership and contributor counts
// equal the sequential Set_Builder under ParentRule::kLeastFirst (or
// kHashSpread), so the partition is calibrated with that rule.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/diagnoser.hpp"
#include "distributed/simulator.hpp"
#include "graph/graph.hpp"
#include "mm/oracle.hpp"
#include "topology/topology.hpp"

namespace mmdiag {

struct DistributedRunStats {
  bool success = false;
  std::vector<Node> faults;   // assembled at the winning seed, sorted
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t lookups = 0;  // total syndrome reads across all nodes
  std::uint32_t certified_components = 0;
  Node winner_seed = kNoNode;
  std::string failure_reason;
};

/// Run the full five-stage protocol for `topology` on `graph`.
/// The partition is calibrated with ParentRule::kLeastFirst, falling back
/// to kHashSpread; throws DiagnosisUnsupportedError if no plan certifies
/// under either rule.
[[nodiscard]] DistributedRunStats run_distributed_diagnosis(
    const Topology& topology, const Graph& graph, const SyndromeOracle& oracle,
    unsigned delta = 0);

}  // namespace mmdiag
