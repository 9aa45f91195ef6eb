#include "io/syndrome_io.hpp"

#include <charconv>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "topology/registry.hpp"
#include "util/parse.hpp"

namespace mmdiag {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("syndrome file, line " + std::to_string(line) +
                           ": " + what);
}

/// Reads the next non-comment, non-empty line; false at EOF.
bool next_record(std::istream& is, std::string& line, std::size_t& lineno) {
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    return true;
  }
  return false;
}

/// Header fields plus the first post-header record, which detecting the
/// optional model line had to consume — the record readers drain it first.
struct HeaderInfo {
  std::string spec;
  std::size_t spec_line = 0;
  DiagnosisModel model = DiagnosisModel::kMMStar;
  std::string pending;
  bool has_pending = false;
};

/// Shared header: "mmdiag-syndrome v1" + "topology <spec>" + optional
/// "model <name>" (absent means mm-star, keeping pre-model files valid).
HeaderInfo read_header(std::istream& is, std::size_t& lineno) {
  HeaderInfo h;
  std::string line;
  if (!next_record(is, line, lineno) || line != "mmdiag-syndrome v1") {
    fail(lineno, "expected header 'mmdiag-syndrome v1'");
  }
  if (!next_record(is, line, lineno) || line.rfind("topology ", 0) != 0) {
    fail(lineno, "expected 'topology <spec>'");
  }
  h.spec = line.substr(9);
  h.spec_line = lineno;
  if (next_record(is, line, lineno)) {
    if (line.rfind("model ", 0) == 0) {
      try {
        h.model = diagnosis_model_from_string(line.substr(6));
      } catch (const std::exception& e) {
        fail(lineno, e.what());
      }
    } else {
      h.pending = std::move(line);
      h.has_pending = true;
    }
  }
  return h;
}

/// Yields the next record, draining the header's pending line first.
bool next_body_record(std::istream& is, HeaderInfo& h, std::string& line,
                      std::size_t& lineno) {
  if (h.has_pending) {
    line = std::move(h.pending);
    h.has_pending = false;
    return true;
  }
  return next_record(is, line, lineno);
}

/// The shortest v1 node record, "node <id> -\n", in bytes.
constexpr std::uint64_t kMinRecordBytes = 9;

/// Refuses a spec whose node records cannot fit in what is left of a
/// seekable stream, before the resolver builds its graph: a 45-byte file
/// naming hypercube 26 must not allocate 2^26 adjacency rows. The node
/// count comes from a registry parse, which builds no adjacency. A spec the
/// registry cannot parse, or a stream that cannot seek, is left to the
/// resolver.
void check_room_for_records(std::istream& is, const HeaderInfo& h) {
  std::uint64_t nodes = 0;
  try {
    nodes = make_topology_from_spec(h.spec)->info().num_nodes;
  } catch (const std::exception&) {
    return;
  }
  std::streambuf& buf = *is.rdbuf();
  const std::streampos here = buf.pubseekoff(0, std::ios_base::cur,
                                             std::ios_base::in);
  if (here == std::streampos(-1)) return;
  const std::streampos end = buf.pubseekoff(0, std::ios_base::end,
                                            std::ios_base::in);
  buf.pubseekpos(here, std::ios_base::in);
  if (end == std::streampos(-1) || end < here) return;
  // The header's look-ahead already consumed one body line.
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(end - here) +
      (h.has_pending ? h.pending.size() + 1 : 0);
  if (nodes <= bytes / kMinRecordBytes) return;
  fail(h.spec_line,
       "topology '" + h.spec + "' has " + std::to_string(nodes) +
           " nodes, but the " + std::to_string(bytes) +
           " bytes left hold at most " +
           std::to_string(bytes / kMinRecordBytes) + " node records of " +
           std::to_string(kMinRecordBytes) +
           " bytes or more: node record(s) missing");
}

/// The shared header-and-resolve step: the header, a refusal of the other
/// model family, a refusal of a spec too large for the bytes left, and the
/// graph `resolve` maps the spec to.
const Graph& resolve_header(std::istream& is, HeaderInfo& h,
                            std::size_t& lineno, bool want_directed,
                            const GraphResolver& resolve) {
  h = read_header(is, lineno);
  if (is_directed_model(h.model) != want_directed) {
    const std::string name = diagnosis_model_to_string(h.model);
    if (want_directed) {
      fail(lineno, "file carries an mm-star syndrome (model '" + name +
                       "'): use read_syndrome");
    }
    fail(lineno, "file carries a directed syndrome (model '" + name +
                     "'): use read_directed_syndrome");
  }
  check_room_for_records(is, h);
  try {
    return resolve(h.spec);
  } catch (const std::exception& e) {
    fail(lineno, "cannot resolve topology spec '" + h.spec + "': " + e.what());
  }
}

/// Shared body: the "node <id> <bits>" records up to "end", written into a
/// syndrome sized for `graph`. A degree-d node carries width(d) bits, which
/// store(syndrome, node, d, bits) writes once they are checked.
template <typename SyndromeT, typename Width, typename Store>
SyndromeT read_records(std::istream& is, HeaderInfo& h, const Graph& graph,
                       std::size_t& lineno, Width width, Store store) {
  SyndromeT syndrome(graph);
  std::vector<bool> seen(graph.num_nodes(), false);
  std::size_t remaining = graph.num_nodes();
  std::string line;
  while (next_body_record(is, h, line, lineno)) {
    if (line == "end") {
      if (remaining != 0) {
        fail(lineno, std::to_string(remaining) + " node record(s) missing");
      }
      return syndrome;
    }
    std::istringstream ls(line);
    std::string keyword, bits;
    std::uint64_t id = 0;
    if (!(ls >> keyword >> id >> bits) || keyword != "node") {
      fail(lineno, "expected 'node <id> <bits>'");
    }
    if (id >= graph.num_nodes()) fail(lineno, "node id out of range");
    if (seen[id]) fail(lineno, "duplicate node record");
    seen[id] = true;
    --remaining;
    const Node u = static_cast<Node>(id);
    const unsigned d = graph.degree(u);
    const std::size_t expected = width(d);
    if (bits == "-" && expected == 0) continue;
    if (bits.size() != expected) {
      fail(lineno, "expected " + std::to_string(expected) + " bits, got " +
                       std::to_string(bits.size()));
    }
    if (bits.find_first_not_of("01") != std::string::npos) {
      fail(lineno, "bits must be 0 or 1");
    }
    store(syndrome, u, d, bits);
  }
  fail(lineno, "missing 'end'");
}

}  // namespace

SyndromeFileHeader peek_syndrome_header(std::istream& is) {
  std::size_t lineno = 0;
  const HeaderInfo h = read_header(is, lineno);
  return SyndromeFileHeader{h.spec, h.model};
}

void write_syndrome(std::ostream& os, const std::string& spec,
                    const Graph& graph, const Syndrome& syndrome) {
  os << "mmdiag-syndrome v1\n";
  os << "topology " << spec << "\n";
  std::string bits;
  for (Node u = 0; u < graph.num_nodes(); ++u) {
    const unsigned d = graph.degree(u);
    bits.clear();
    for (unsigned i = 0; i + 1 < d; ++i) {
      for (unsigned j = i + 1; j < d; ++j) {
        bits.push_back(syndrome.test(u, i, j) ? '1' : '0');
      }
    }
    os << "node " << u << " " << (bits.empty() ? "-" : bits) << "\n";
  }
  os << "end\n";
}

ParsedSyndrome read_syndrome(std::istream& is, const GraphResolver& resolve) {
  std::size_t lineno = 0;
  HeaderInfo h;
  const Graph& graph = resolve_header(is, h, lineno, false, resolve);
  // Under MM* a node's bits are its pair tests in (i, j) lexicographic
  // order over adjacency positions.
  Syndrome syndrome = read_records<Syndrome>(
      is, h, graph, lineno,
      [](unsigned d) { return static_cast<std::size_t>(d) * (d - 1) / 2; },
      [](Syndrome& out, Node u, unsigned d, const std::string& bits) {
        std::size_t cursor = 0;
        for (unsigned i = 0; i + 1 < d; ++i) {
          for (unsigned j = i + 1; j < d; ++j, ++cursor) {
            out.set_test(u, i, j, bits[cursor] == '1');
          }
        }
      });
  return ParsedSyndrome{std::move(h.spec), std::move(syndrome)};
}

void write_directed_syndrome(std::ostream& os, const std::string& spec,
                             DiagnosisModel model, const Graph& graph,
                             const DirectedSyndrome& syndrome) {
  if (!is_directed_model(model)) {
    throw std::invalid_argument(
        "write_directed_syndrome: mm-star syndromes go through "
        "write_syndrome");
  }
  os << "mmdiag-syndrome v1\n";
  os << "topology " << spec << "\n";
  os << "model " << diagnosis_model_to_string(model) << "\n";
  std::string bits;
  for (Node u = 0; u < graph.num_nodes(); ++u) {
    const unsigned d = graph.degree(u);
    bits.clear();
    for (unsigned p = 0; p < d; ++p) {
      bits.push_back(syndrome.test(u, p) ? '1' : '0');
    }
    os << "node " << u << " " << (bits.empty() ? "-" : bits) << "\n";
  }
  os << "end\n";
}

ParsedDirectedSyndrome read_directed_syndrome(std::istream& is,
                                              const GraphResolver& resolve) {
  std::size_t lineno = 0;
  HeaderInfo h;
  const Graph& graph = resolve_header(is, h, lineno, true, resolve);
  // Under PMC/BGM a node's bits are its outgoing arcs: character p is the
  // outcome of testing neighbour p.
  DirectedSyndrome syndrome = read_records<DirectedSyndrome>(
      is, h, graph, lineno, [](unsigned d) { return std::size_t{d}; },
      [](DirectedSyndrome& out, Node u, unsigned d, const std::string& bits) {
        for (unsigned p = 0; p < d; ++p) out.set_test(u, p, bits[p] == '1');
      });
  return ParsedDirectedSyndrome{std::move(h.spec), h.model,
                                std::move(syndrome)};
}

void write_node_list(std::ostream& os, const std::vector<Node>& nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i) os << ' ';
    os << nodes[i];
  }
  os << '\n';
}

std::vector<Node> read_node_list(std::istream& is) {
  const auto fail_list = [](std::size_t line, const std::string& what) {
    throw std::runtime_error("node list, line " + std::to_string(line) + ": " +
                             what);
  };
  std::vector<Node> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string token;
    while (ls >> token) {
      // parse_unsigned accepts exactly the digit strings write_node_list
      // emits; anything else ("xyz", "-3", "1e3", partial parses like
      // "17x") throws instead of being silently dropped the way `is >> v`
      // used to stop. The range check stays separate for its own message.
      const auto value = parse_unsigned(token);
      if (!value) {
        fail_list(lineno, "expected a node id, got '" + token + "'");
      }
      if (*value > std::numeric_limits<Node>::max()) {
        fail_list(lineno, "node id " + token + " out of range");
      }
      out.push_back(static_cast<Node>(*value));
    }
  }
  return out;
}

}  // namespace mmdiag
