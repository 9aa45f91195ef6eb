// Certified partitions — runtime calibration of the §5 driver.
//
// The paper assumes the chosen components are large enough that a fault-free
// component certifies (its Set_Builder tree has more than δ internal nodes).
// That assumption is *false* for the paper's own component choice in small
// cases (DESIGN.md §4.1), so instead of trusting a closed-form size we
// calibrate: walk the topology's partition plans from finest to coarsest and
// simulate the restricted builder on a fault-free oracle. A plan is accepted
// when every component (a) is covered entirely — proving the induced
// subgraph is connected — and (b) produces more than δ contributors.
//
// Because the diagnosis-time run on a genuinely fault-free component replays
// the calibration run verbatim (all consulted tests are 0), calibration
// success guarantees the driver terminates within δ+1 probes whenever
// |F| <= δ — but only when the diagnosis-time probes use the *same* parent
// rule the calibration did. The partition therefore carries its calibration
// inputs (rule, delta, validate_all) and consumers enforce the match instead
// of trusting callers to keep them aligned.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "core/set_builder.hpp"
#include "graph/graph.hpp"
#include "topology/topology.hpp"

namespace mmdiag {

class ThreadPool;

/// Raised when no partition plan of a topology can support fault bound δ
/// (e.g. S_{n,2} and A_{n,2}, whose components are cliques — see DESIGN.md).
class DiagnosisUnsupportedError : public std::runtime_error {
 public:
  explicit DiagnosisUnsupportedError(const std::string& what)
      : std::runtime_error(what) {}
};

struct CertifiedPartition {
  std::shared_ptr<const PartitionPlan> plan;
  unsigned delta = 0;                    // fault bound the plan certifies
  ParentRule rule = ParentRule::kSpread; // rule the plan was calibrated under
  std::uint64_t calibration_lookups = 0; // fault-free-oracle probes spent
  bool fully_validated = false;          // every component checked?
};

/// Find the finest plan certifying fault bound `delta` under `rule`.
/// validate_all=false checks only component 0 (sufficient for families whose
/// components are pairwise isomorphic); true checks every component.
///
/// With a pool, the components of a plan are probed on its lanes, one
/// SetBuilder per lane in use; null means one inline lane. The accepted
/// plan, calibration_lookups, fully_validated and every rejection message
/// are those of the serial walk at every lane count.
[[nodiscard]] CertifiedPartition find_certified_partition(
    const Topology& topology, const Graph& graph, unsigned delta,
    ParentRule rule = ParentRule::kSpread, bool validate_all = true,
    ThreadPool* pool = nullptr);

/// Implicit-view calibration: identical walk, identical accepted plan and
/// calibration look-ups (the builder consults the same fault-free tests in
/// the same order), but no edge is ever materialised — O(N) bits of scratch
/// per builder is the whole footprint.
[[nodiscard]] CertifiedPartition find_certified_partition(
    const Topology& topology, const ImplicitGraph& graph, unsigned delta,
    ParentRule rule = ParentRule::kSpread, bool validate_all = true,
    ThreadPool* pool = nullptr);

/// True iff the single component `comp` of `plan` certifies when fault-free.
[[nodiscard]] bool component_certifies(const Graph& graph,
                                       const PartitionPlan& plan,
                                       std::uint32_t comp, unsigned delta,
                                       ParentRule rule);
[[nodiscard]] bool component_certifies(const ImplicitGraph& graph,
                                       const PartitionPlan& plan,
                                       std::uint32_t comp, unsigned delta,
                                       ParentRule rule);

}  // namespace mmdiag
