#include "topology/topology.hpp"

#include "graph/builder.hpp"

namespace mmdiag {

std::string Topology::spec() const {
  std::string out = info().family;
  for (const unsigned p : params()) {
    out += ' ';
    out += std::to_string(p);
  }
  return out;
}

Graph Topology::build_graph(ThreadPool* pool) const {
  return build_graph_from_generator(
      static_cast<std::size_t>(info().num_nodes),
      [this](Node u, std::vector<Node>& out) { neighbors(u, out); }, pool);
}

unsigned diagnosability_by_chang(std::uint64_t num_nodes, unsigned degree,
                                 unsigned connectivity) {
  if (degree == 0 || connectivity != degree) return 0;
  if (num_nodes < 2ULL * degree + 3ULL) return 0;
  return degree;
}

}  // namespace mmdiag
