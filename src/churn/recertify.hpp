// Incremental recertification of a calibrated partition under churn.
//
// The base calibration pins a partition plan; churn never re-walks the plan
// list (positions, seeds and component ids all address the *base* adjacency,
// which the overlay keeps frozen). What churn changes is whether each
// component still certifies: a component certifies on the churned topology
// when a fault-free restricted run from its first live node covers every
// live member with more than δ contributors — the same certificate the cold
// calibration computes, evaluated through the overlay mask.
//
// The incremental part rests on a structural fact of Set_Builder's
// restricted runs: membership eligibility is checked *before* the oracle is
// consulted, so a restricted run over component c reads only tests rooted at
// c's members about c's members. A delta at node u therefore cannot change
// the certification of any component but comp(u); an edge delta inside one
// component touches that component only, and a cross-component edge delta
// touches none (cross-component edges are never consulted by restricted
// runs). recertify_component() on the touched set is thus bit-identical —
// status, seed, contributor counts AND counted look-ups — to recertifying
// every component cold, which churn_test and the fuzz voice assert.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "churn/topology_overlay.hpp"
#include "core/set_builder.hpp"
#include "topology/partition.hpp"
#include "util/enum_names.hpp"
#include "util/types.hpp"

namespace mmdiag {

enum class ComponentCertStatus : std::uint8_t {
  kCertified,  // fault-free restricted run covers all live members, > δ contributors
  kDegraded,   // live members exist but the certificate no longer holds
  kEmpty,      // every member removed — quiescent, nothing to diagnose
};

[[nodiscard]] std::string to_string(ComponentCertStatus status);

/// Per-component certification state on the churned topology. Equality is
/// the bit-identity the incremental-vs-cold differ checks, counted look-ups
/// included.
struct ComponentChurnState {
  ComponentCertStatus status = ComponentCertStatus::kEmpty;
  Node seed = kNoNode;            // first live member; kNoNode when empty
  std::uint64_t live_nodes = 0;   // members not removed by the overlay
  std::uint64_t contributors = 0; // internal nodes of the fault-free run
  std::uint64_t covered = 0;      // members reached by the fault-free run
  std::uint64_t lookups = 0;      // fault-free tests the certificate spent

  bool operator==(const ComponentChurnState&) const = default;
};

class ChurnRecertifier {
 public:
  ChurnRecertifier(const Graph& graph,
                   std::shared_ptr<const PartitionPlan> plan, unsigned delta,
                   ParentRule rule);

  [[nodiscard]] std::uint32_t num_components() const noexcept {
    return num_components_;
  }

  /// Members of `comp` in ascending node order (plans like FixLastSymbolPlan
  /// have non-contiguous components, so an explicit index is kept).
  [[nodiscard]] std::span<const Node> component_members(
      std::uint32_t comp) const {
    return {comp_nodes_.data() + comp_offsets_[comp],
            comp_offsets_[comp + 1] - comp_offsets_[comp]};
  }

  /// Certify one component against the overlay (fault-free masked run).
  [[nodiscard]] ComponentChurnState recertify_component(
      const TopologyOverlay& overlay, std::uint32_t comp);

  /// Cold reference: recertify every component. The incremental path must
  /// agree with this bit for bit after any delta sequence.
  [[nodiscard]] std::vector<ComponentChurnState> recertify_all(
      const TopologyOverlay& overlay);

  /// Components whose certification `delta` can change — {comp(u)} for node
  /// ops, {comp(u)} for an intra-component edge, empty for a
  /// cross-component edge (see the header comment for why this is exact).
  [[nodiscard]] std::vector<std::uint32_t> touched_components(
      const ChurnDelta& delta) const;

 private:
  void build_member_index(std::size_t num_nodes);

  SetBuilder builder_;
  std::shared_ptr<const PartitionPlan> plan_;
  unsigned delta_ = 0;
  std::uint32_t num_components_ = 0;
  std::vector<std::size_t> comp_offsets_;  // CSR over comp_nodes_
  std::vector<Node> comp_nodes_;
};

}  // namespace mmdiag
