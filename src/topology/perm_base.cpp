#include "topology/perm_base.hpp"

namespace mmdiag {

void PermTopology::neighbors(Node u, std::vector<Node>& out) const {
  PermCodec::Cursor node;
  codec_.seek(u, node);
  out.clear();
  moves(node, out);
}

void PermTopology::emit_rows(Node first, Node last,
                             const RowSink& sink) const {
  if (first >= last) return;
  PermCodec::Cursor node;
  codec_.seek(first, node);
  std::vector<Node> row;
  for (Node u = first;;) {
    row.clear();
    moves(node, row);
    sink(row);
    if (++u == last) return;
    codec_.next(node);
  }
}

}  // namespace mmdiag
