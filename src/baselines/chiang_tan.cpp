#include "baselines/chiang_tan.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmdiag {
namespace {

// Minimum branch faults by observed pattern index t1*4 + t2*2 + t3.
constexpr unsigned kMinFaultsHealthy[8] = {0, 1, 1, 1, 2, 1, 1, 1};
constexpr unsigned kMinFaultsFaulty[8] = {3, 2, 1, 2, 0, 1, 1, 1};

// s_u(a, b) looked up by node ids (positions resolved here).
bool read_test(const Graph& g, const SyndromeOracle& oracle, Node u, Node a,
               Node b) {
  const int ia = g.neighbor_position(u, a);
  const int ib = g.neighbor_position(u, b);
  if (ia < 0 || ib < 0) throw std::logic_error("extended star not in graph");
  return oracle.test(u, static_cast<unsigned>(ia), static_cast<unsigned>(ib));
}

}  // namespace

ChiangTanDiagnoser::ChiangTanDiagnoser(const Graph& graph,
                                       ExtendedStarProvider provider,
                                       unsigned branches)
    : graph_(&graph), provider_(std::move(provider)), branches_(branches) {
  if (branches_ == 0) throw std::invalid_argument("ChiangTan: need branches > 0");
}

ChiangTanDiagnoser ChiangTanDiagnoser::for_hypercube(const Hypercube& topo,
                                                     const Graph& graph) {
  return ChiangTanDiagnoser(
      graph, [&topo](Node x) { return extended_star_hypercube(topo, x); },
      topo.info().degree);
}

ChiangTanDiagnoser ChiangTanDiagnoser::for_star_graph(const StarGraph& topo,
                                                      const Graph& graph) {
  return ChiangTanDiagnoser(
      graph, [&topo](Node x) { return extended_star_star_graph(topo, x); },
      topo.info().degree);
}

int ChiangTanDiagnoser::diagnose_node(const SyndromeOracle& oracle,
                                      Node x) const {
  const ExtendedStar es = provider_(x);
  if (es.branches.size() < branches_) {
    throw std::logic_error("extended star has too few branches");
  }
  unsigned need_if_healthy = 0;
  unsigned need_if_faulty = 1;  // x itself
  for (const auto& b : es.branches) {
    const unsigned t1 = read_test(*graph_, oracle, b[0], x, b[1]) ? 1u : 0u;
    const unsigned t2 = read_test(*graph_, oracle, b[1], b[0], b[2]) ? 1u : 0u;
    const unsigned t3 = read_test(*graph_, oracle, b[2], b[1], b[3]) ? 1u : 0u;
    const unsigned pattern = t1 * 4 + t2 * 2 + t3;
    need_if_healthy += kMinFaultsHealthy[pattern];
    need_if_faulty += kMinFaultsFaulty[pattern];
  }
  const bool healthy_ok = need_if_healthy <= branches_;
  const bool faulty_ok = need_if_faulty <= branches_;
  if (healthy_ok == faulty_ok) return -1;  // only possible when |F| > branches
  return faulty_ok ? 1 : 0;
}

DiagnosisResult ChiangTanDiagnoser::diagnose(
    const SyndromeOracle& oracle) const {
  oracle.reset_lookups();
  DiagnosisResult out;
  for (std::size_t v = 0; v < graph_->num_nodes(); ++v) {
    const int verdict = diagnose_node(oracle, static_cast<Node>(v));
    if (verdict < 0) {
      out.lookups = oracle.lookups();
      out.failure_reason = "node " + std::to_string(v) +
                           " locally ambiguous (fault count exceeds the "
                           "extended-star order)";
      out.faults.clear();
      return out;
    }
    if (verdict == 1) out.faults.push_back(static_cast<Node>(v));
  }
  out.lookups = oracle.lookups();
  out.success = true;
  return out;
}

DistributedCost distributed_chiang_tan_cost(const Hypercube& topo,
                                            const Graph& graph,
                                            const SyndromeOracle& oracle) {
  const auto ct = ChiangTanDiagnoser::for_hypercube(topo, graph);
  const auto result = ct.diagnose(oracle);
  DistributedCost cost;
  cost.success = result.success;
  cost.lookups = result.lookups;
  // Each node pulls 3 test bits per branch, relayed over 1+2+3 hops.
  cost.messages =
      6ULL * ct.branches() * static_cast<std::uint64_t>(graph.num_nodes());
  cost.rounds = 6;  // pipelined relays
  return cost;
}

}  // namespace mmdiag
