#include "topology/topology.hpp"

namespace mmdiag {

std::string Topology::spec() const {
  std::string out = info().family;
  for (const unsigned p : params()) {
    out += ' ';
    out += std::to_string(p);
  }
  return out;
}

void Topology::emit_rows(Node first, Node last, const RowSink& sink) const {
  std::vector<Node> row;
  for (Node u = first; u < last; ++u) {
    neighbors(u, row);
    sink(row);
  }
}

Graph Topology::build_graph(ThreadPool* pool) const {
  const TopologyInfo topology = info();
  return build_graph_from_generator(
      static_cast<std::size_t>(topology.num_nodes), topology.degree,
      [this](Node first, Node last, const RowSink& sink) {
        emit_rows(first, last, sink);
      },
      pool);
}

unsigned diagnosability_by_chang(std::uint64_t num_nodes, unsigned degree,
                                 unsigned connectivity) {
  if (degree == 0 || connectivity != degree) return 0;
  if (num_nodes < 2ULL * degree + 3ULL) return 0;
  return degree;
}

}  // namespace mmdiag
