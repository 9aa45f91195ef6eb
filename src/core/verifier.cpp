#include "core/verifier.hpp"

#include <stdexcept>

namespace mmdiag {

bool syndrome_consistent(const Graph& g, const SyndromeOracle& oracle,
                         const FaultSet& claimed) {
  const std::size_t n = g.num_nodes();
  for (std::size_t u = 0; u < n; ++u) {
    const auto node = static_cast<Node>(u);
    if (claimed.is_faulty(node)) continue;  // faulty testers are unconstrained
    const auto adj = g.neighbors(node);
    for (unsigned i = 0; i + 1 < adj.size(); ++i) {
      const bool fi = claimed.is_faulty(adj[i]);
      for (unsigned j = i + 1; j < adj.size(); ++j) {
        const bool expected = fi || claimed.is_faulty(adj[j]);
        if (oracle.test(node, i, j) != expected) return false;
      }
    }
  }
  return true;
}

DiagnosisResult diagnose_and_verify(Diagnoser& diagnoser,
                                    const SyndromeOracle& oracle) {
  if (!oracle.has_graph()) {
    throw std::invalid_argument(
        "diagnose_and_verify: verification reads the oracle's graph; "
        "a graph-less oracle cannot be verified");
  }
  DiagnosisResult result = diagnoser.diagnose(oracle);
  if (!result.success) return result;
  const FaultSet claimed(oracle.graph().num_nodes(), result.faults);
  const std::uint64_t before = oracle.lookups();
  if (!syndrome_consistent(oracle.graph(), oracle, claimed)) {
    result.success = false;
    result.failure_reason =
        "diagnosis inconsistent with the syndrome (fault count must exceed "
        "delta, or the syndrome is corrupt)";
    result.faults.clear();
  }
  result.lookups = before;  // verification look-ups reported separately
  return result;
}

}  // namespace mmdiag
