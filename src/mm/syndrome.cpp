#include "mm/syndrome.hpp"

namespace mmdiag {

Syndrome::Syndrome(const Graph& g) : num_nodes_(g.num_nodes()) {
  std::uint64_t total = 0;
  if (g.min_degree() == g.max_degree()) {
    const std::uint64_t d = g.max_degree();
    degree_ = static_cast<std::uint32_t>(d);
    total = num_nodes_ * d * d;
    logical_tests_ = num_nodes_ * (d * (d - 1) / 2);
  } else {
    offsets_.resize(num_nodes_);
    degrees_.resize(num_nodes_);
    for (std::size_t u = 0; u < num_nodes_; ++u) {
      const std::uint64_t d = g.degree(static_cast<Node>(u));
      offsets_[u] = total;
      degrees_[u] = static_cast<std::uint32_t>(d);
      total += d * d;
      logical_tests_ += d * (d - 1) / 2;
    }
  }
  bits_ = BitVec(total);
}

bool Syndrome::laid_out_for(const Graph& g) const noexcept {
  if (g.num_nodes() != num_nodes_) return false;
  if (degrees_.empty()) {
    return g.min_degree() == degree_ && g.max_degree() == degree_;
  }
  for (std::size_t u = 0; u < num_nodes_; ++u) {
    if (g.degree(static_cast<Node>(u)) != degrees_[u]) return false;
  }
  return true;
}

Syndrome generate_syndrome(const Graph& g, const FaultSet& faults,
                           FaultyBehavior behavior, std::uint64_t seed) {
  Syndrome s(g);
  const std::size_t n = g.num_nodes();
  for (std::size_t u = 0; u < n; ++u) {
    const auto node = static_cast<Node>(u);
    const auto adj = g.neighbors(node);
    const bool u_faulty = faults.is_faulty(node);
    for (unsigned i = 0; i + 1 < adj.size(); ++i) {
      const bool vi_faulty = faults.is_faulty(adj[i]);
      for (unsigned j = i + 1; j < adj.size(); ++j) {
        const bool vj_faulty = faults.is_faulty(adj[j]);
        const bool result =
            u_faulty ? faulty_test_result(behavior, seed, node, adj[i], adj[j],
                                          vi_faulty, vj_faulty)
                     : (vi_faulty || vj_faulty);
        s.set_test(node, i, j, result);
      }
    }
  }
  return s;
}

}  // namespace mmdiag
