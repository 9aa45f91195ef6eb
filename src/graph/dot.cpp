#include "graph/dot.hpp"

#include <algorithm>
#include <ostream>

#include "util/bitvec.hpp"

namespace mmdiag {

void write_dot(std::ostream& os, const Graph& g, const DotStyle& style) {
  DirtyBitset hi(g.num_nodes());
  for (const Node v : style.highlighted) hi.insert(v);

  auto edge_key = [](Node a, Node b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  std::vector<std::uint64_t> bold;
  bold.reserve(style.bold_edges.size());
  for (const auto& [a, b] : style.bold_edges) bold.push_back(edge_key(a, b));
  std::sort(bold.begin(), bold.end());

  os << "graph G {\n  node [shape=circle, fontsize=10];\n";
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    os << "  n" << u << " [label=\""
       << (style.label ? style.label(static_cast<Node>(u)) : std::to_string(u))
       << '"';
    if (hi.contains(static_cast<Node>(u))) {
      os << ", style=filled, fillcolor=\"#e06060\"";
    }
    os << "];\n";
  }
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    for (const Node v : g.neighbors(static_cast<Node>(u))) {
      if (v <= u) continue;  // each undirected edge once
      os << "  n" << u << " -- n" << v;
      if (std::binary_search(bold.begin(), bold.end(),
                             edge_key(static_cast<Node>(u), v))) {
        os << " [penwidth=2.5, color=\"#2040c0\"]";
      }
      os << ";\n";
    }
  }
  os << "}\n";
}

}  // namespace mmdiag
