#include "mm/directed_syndrome.hpp"

#include <stdexcept>

namespace mmdiag {

DirectedSyndrome::DirectedSyndrome(const Graph& g)
    : num_nodes_(g.num_nodes()) {
  std::uint64_t total = 0;
  if (g.min_degree() == g.max_degree()) {
    degree_ = g.max_degree();
    total = std::uint64_t{num_nodes_} * degree_;
  } else {
    offsets_.resize(num_nodes_ + 1);
    for (std::size_t u = 0; u < num_nodes_; ++u) {
      offsets_[u] = total;
      total += g.degree(static_cast<Node>(u));
    }
    offsets_[num_nodes_] = total;
  }
  bits_ = BitVec(total);
}

bool DirectedSyndrome::laid_out_for(const Graph& g) const noexcept {
  if (g.num_nodes() != num_nodes_) return false;
  if (offsets_.empty()) {
    return g.min_degree() == degree_ && g.max_degree() == degree_;
  }
  for (Node u = 0; u < num_nodes_; ++u) {
    if (g.degree(u) != degree(u)) return false;
  }
  return true;
}

DirectedSyndrome generate_directed_syndrome(const Graph& g,
                                            const FaultSet& faults,
                                            DiagnosisModel model,
                                            FaultyBehavior behavior,
                                            std::uint64_t seed) {
  if (!is_directed_model(model)) {
    throw std::invalid_argument(
        "generate_directed_syndrome: MM* syndromes are comparator matrices — "
        "use generate_syndrome");
  }
  DirectedSyndrome s(g);
  const std::size_t n = g.num_nodes();
  for (std::size_t u = 0; u < n; ++u) {
    const auto node = static_cast<Node>(u);
    const auto adj = g.neighbors(node);
    const bool u_faulty = faults.is_faulty(node);
    for (unsigned p = 0; p < adj.size(); ++p) {
      s.set_test(node, p,
                 directed_test_result(model, behavior, seed, node, adj[p],
                                      u_faulty, faults.is_faulty(adj[p])));
    }
  }
  return s;
}

}  // namespace mmdiag
