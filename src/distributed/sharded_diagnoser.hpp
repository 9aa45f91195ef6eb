// ShardedDiagnoser — the monolithic §5 driver over owner/halo shards.
//
// The monolithic Diagnoser holds one Graph/Syndrome and one SetBuilder;
// beyond ~2^20 nodes a materialised CSR alone is hundreds of megabytes and
// the solve is bounded by one core. This engine splits the node space into
// S owner shards (ShardPlan), gives each shard only the syndrome rows it
// owns plus a 1-hop halo (ShardRowStore), and runs every Set_Builder round
// as S parallel scans over a ThreadPool — while producing results
// *bit-identical* to the monolith: same faults, probes, rounds, members,
// failure strings and counted look-ups (tests/shard_test.cpp asserts all of
// it against Diagnoser per family, shard count and rule).
//
// Why bit-identity is achievable at all: under the deferred parent rules
// (kSpread / kLeastSync / kHashSpread) a Set_Builder round is two pure
// phases. The scan phase consults syndrome rows against start-of-round
// membership — membership is frozen while it runs, so it can be computed in
// any order, including S shards in parallel. The join phase then replays
// admissions in an order fixed entirely by (parent, position) keys. The
// sharded engine parallelises only the scan and keeps the join sequential:
//
//   - Scan: each shard walks the shared frontier bitmap and processes the
//     frontier nodes *assigned* to it, collecting its 0-test offers in
//     (parent asc, position asc) order. The frontier node u is assigned to
//     owner(t(u)) — the shard owning u's tree parent — because the row the
//     scan reads is u's row pivoted at the parent position, and
//     u ∈ neighbours(t(u)) puts u inside owner(t(u))'s owned ∪ halo set by
//     the definition of a 1-hop halo. That assignment is what makes the
//     halo exchange exactly sufficient, and ShardRowStore throws if any
//     scan ever reaches past it.
//   - Join: every frontier node is scanned by exactly one shard, so each
//     shard's offer list holds whole parent groups in ascending parent
//     order. A k-way merge at parent-group granularity therefore walks the
//     exact offer sequence the monolith's zero_edges_ buffer held, without
//     materialising it; the monolith's pass-A/pass-B logic then replays
//     admissions verbatim (kHashSpread materialises and sorts, as the
//     monolith does). Round 1 (the seed's pair loop) and the certificate
//     checks run sequentially, byte-for-byte the monolithic code.
//
// The paper's kLeastFirst rule is the one rule this cannot shard: it admits
// members *during* the scan, making each consult depend on the admissions
// of all lower-numbered frontier nodes — an order-serial chain. The
// constructor rejects it for either phase; sharded callers use kSpread
// (the default probe rule) for the final run too.
//
// Look-up accounting is unchanged by construction: row reads are physical
// and uncounted (TableOracle::row_bits_at semantics), each shard counts
// exactly the pairs it consults, and the per-round sum over shards equals
// the monolith's count because both consult the same pair set. The halo
// exchange moves rows, never look-ups.
//
// Phase 3 (N(U_r)) is a parallel per-owner-range complement scan;
// concatenating shard outputs in shard order is ascending node order, so
// the fault vector needs no sort — same as the monolith's ascending scan.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/certified_partition.hpp"
#include "core/diagnoser.hpp"
#include "distributed/shard_plan.hpp"
#include "distributed/shard_store.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/syndrome.hpp"
#include "topology/topology.hpp"
#include "util/bitvec.hpp"
#include "util/thread_pool.hpp"

namespace mmdiag {

struct ShardedOptions {
  /// Owner shards to split the node space into (1..ShardPlan::kMaxShards).
  unsigned shards = 2;
  /// ThreadPool lanes for the scan phases; 0 = hardware concurrency.
  unsigned threads = 0;
  /// The monolithic options being replicated. rule must match the adopted
  /// partition's calibration rule; rule and final_rule must both be
  /// deferred (anything but kLeastFirst — see the header comment).
  DiagnoserOptions diagnoser{.final_rule = ParentRule::kSpread};
};

/// Per-diagnose sharding telemetry (memory honesty for the benches).
struct ShardedRunStats {
  unsigned shards = 0;
  /// Whole d-pivot row blocks moved across shard boundaries: the full halo
  /// in table mode, the demand-paged subset actually touched in lazy mode.
  std::uint64_t halo_blocks_exchanged = 0;
  std::uint64_t max_store_bytes = 0;    // largest single shard's row store
  std::uint64_t total_store_bytes = 0;  // all shards together
  bool closed_form_halo = false;
};

class ShardedDiagnoser {
 public:
  /// Adopts a partition certified elsewhere, like the monolithic adopting
  /// constructors. Throws std::invalid_argument on a null topology, a rule
  /// mismatch with the partition, a delta conflict, shards out of range,
  /// or a kLeastFirst probe/final rule (not shardable — header comment).
  ShardedDiagnoser(std::shared_ptr<const Topology> topology,
                   CertifiedPartition partition, ShardedOptions options = {});

  /// Table mode: diagnose a materialised syndrome. Each shard copies its
  /// owned rows and eagerly exchanges its halo rows before solving.
  [[nodiscard]] DiagnosisResult diagnose(const Syndrome& syndrome);

  /// Lazy mode: diagnose against a hidden fault set (the
  /// ImplicitLazyOracle analogue) — rows are computed on consultation and
  /// halo rows demand-paged, so the row footprint stays far below the
  /// monolithic syndrome. This is the multi-million-node path.
  [[nodiscard]] DiagnosisResult diagnose(const FaultSet& faults,
                                         FaultyBehavior behavior,
                                         std::uint64_t seed);

  [[nodiscard]] const ShardPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const ShardedRunStats& last_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] unsigned delta() const noexcept { return delta_; }
  [[nodiscard]] const CertifiedPartition& partition() const noexcept {
    return partition_;
  }
  [[nodiscard]] const ImplicitGraph& view() const noexcept { return view_; }

 private:
  struct ZeroEdge {
    Node parent;
    Node child;
    std::uint32_t child_parent_pos;
  };
  struct RunOutcome {
    bool all_healthy = false;
    unsigned rounds = 0;
    std::size_t contributors = 0;
    std::size_t member_count = 0;
  };

  void check_options() const;
  DiagnosisResult diagnose_on(std::vector<ShardRowStore>& stores);
  RunOutcome run_sharded(std::vector<ShardRowStore>& stores, Node u0,
                         ParentRule rule, const PartitionPlan* plan,
                         std::uint32_t comp);
  template <class Fn>
  void for_each_parent_group(Fn&& fn);
  void fill_stats(const std::vector<ShardRowStore>& stores);

  std::shared_ptr<const Topology> topology_;
  ImplicitGraph view_;
  ShardedOptions options_;
  unsigned delta_;
  CertifiedPartition partition_;
  ShardPlan plan_;
  std::unique_ptr<ThreadPool> pool_;
  ShardedRunStats stats_;

  // Global solver state, shared across shards: syndrome rows are sharded,
  // the growth tree is not. Written only in the sequential join phases;
  // the parallel scans read it frozen.
  DirtyBitset in_set_;
  DirtyBitset is_contributor_;
  std::vector<std::uint64_t> frontier_words_[2];
  std::vector<std::uint32_t> parent_pos_of_;
  /// owner(t(v)) recorded at admission — which shard scans v's row when v
  /// reaches the frontier. One byte per node caps shards at 64+ headroom.
  std::vector<std::uint8_t> scan_shard_of_;
  bool frontier_clean_ = true;
  std::uint64_t lookups_ = 0;  // running total across probes + final run

  // Per-shard scratch, reused across rounds and runs.
  std::vector<unsigned> round1_pos_;
  std::vector<std::vector<ZeroEdge>> shard_edges_;
  std::vector<std::uint64_t> shard_consults_;
  std::vector<std::size_t> merge_cursor_;
  std::vector<ZeroEdge> merged_edges_;  // kHashSpread's sort buffer
  std::vector<std::vector<Node>> shard_faults_;
};

}  // namespace mmdiag
