// Text serialisation of syndromes — the interchange point between a real
// machine's self-test collection and this library's diagnosis.
//
// Format (line oriented, '#' comments allowed between records):
//
//   mmdiag-syndrome v1
//   topology <family> <params...>
//   model <mm-star|pmc|bgm>          (optional; absent means mm-star)
//   node <id> <bits>
//   ...
//   end
//
// Under MM* <bits> is the node's triangular pair-test block, one character
// per unordered neighbour pair in (i,j) lexicographic order (i < j over
// adjacency positions), '0' or '1'. Under the directed models (PMC, BGM)
// <bits> is the node's outgoing arc run instead: character p is the
// outcome of the node testing its p-th neighbour, d characters total.
// Every node of the topology must appear exactly once. The topology line
// rebuilds adjacency deterministically, so positions are unambiguous. The
// model line stays inside the v1 header — pre-model files parse unchanged,
// mirroring the .repro format's optional provenance lines.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "mm/directed_syndrome.hpp"
#include "mm/syndrome.hpp"
#include "util/enum_names.hpp"

namespace mmdiag {

/// Just the header of a syndrome file (version, topology, optional model)
/// — lets a caller dispatch to the matching reader before a full parse.
struct SyndromeFileHeader {
  std::string spec;
  DiagnosisModel model = DiagnosisModel::kMMStar;
};
[[nodiscard]] SyndromeFileHeader peek_syndrome_header(std::istream& is);

/// Maps a file's topology line to the graph its syndrome is read against.
/// Engine-backed callers (the CLI, serve, batch) resolve through the
/// calibration cache, so a file is read against the calibrated graph and a
/// thousand-file request stream touches one shared adjacency per spec. The
/// resolver owns the graph's lifetime and may throw (reported as a
/// line-numbered parse error naming the spec).
using GraphResolver = std::function<const Graph&(const std::string& spec)>;

/// A syndrome parsed against a resolved graph.
struct ParsedSyndrome {
  std::string spec;      // the topology line, as written
  Syndrome syndrome;     // addressed by the resolved graph's adjacency
};

struct ParsedDirectedSyndrome {
  std::string spec;      // the topology line, as written
  DiagnosisModel model = DiagnosisModel::kPMC;
  DirectedSyndrome syndrome;
};

/// Serialise a syndrome together with its topology spec.
void write_syndrome(std::ostream& os, const std::string& spec,
                    const Graph& graph, const Syndrome& syndrome);

/// Parse an MM* syndrome file against `resolve(spec)`; throws
/// std::runtime_error with a line-numbered message on any malformed input,
/// including a file whose model line names a directed model (use
/// read_directed_syndrome there). On a seekable stream, a topology whose
/// node records cannot fit in the bytes left is refused before `resolve`
/// is called, so a short file cannot make the resolver build a huge graph.
[[nodiscard]] ParsedSyndrome read_syndrome(std::istream& is,
                                           const GraphResolver& resolve);

/// Serialise a directed (PMC/BGM) syndrome; the model line is always
/// written. Throws std::invalid_argument on a non-directed model.
void write_directed_syndrome(std::ostream& os, const std::string& spec,
                             DiagnosisModel model, const Graph& graph,
                             const DirectedSyndrome& syndrome);

/// Parse a directed syndrome file (same resolver and error discipline as
/// read_syndrome; an MM* file — no model line, or "model mm-star" — is
/// rejected).
[[nodiscard]] ParsedDirectedSyndrome read_directed_syndrome(
    std::istream& is, const GraphResolver& resolve);

/// Convenience: node list serialisation ("3 17 42\n"), used for fault sets.
/// read_node_list skips blank and '#' lines, accepts ids split over any
/// number of lines, and throws std::runtime_error with a line-numbered
/// message on any non-numeric or out-of-range token (empty input is an
/// empty list, matching what write_node_list emits for one).
void write_node_list(std::ostream& os, const std::vector<Node>& nodes);
[[nodiscard]] std::vector<Node> read_node_list(std::istream& is);

}  // namespace mmdiag
