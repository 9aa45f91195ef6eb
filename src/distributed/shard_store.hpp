// ShardRowStore — the syndrome rows one shard is entitled to read.
//
// A shard may read the packed s_u(pivot, ·) row of exactly the nodes in
// its owner range plus its 1-hop halo; row_bits() throws on anything else,
// which is the runtime proof that the halo ring suffices for the sharded
// solve (see sharded_diagnoser.hpp for why it must).
//
// Two storage modes mirror the two oracle families of the monolith:
//
//   - Table mode (the TableOracle analogue): owned rows are copied out of
//     a full materialised Syndrome into a dense per-shard block, and the
//     halo rows are exchanged eagerly up front into a second dense block —
//     the "boundary-row exchange" of a real distributed run, performed
//     once before any solving starts.
//   - Lazy mode (the ImplicitLazyOracle analogue): owned rows are computed
//     on consultation from the hidden fault set — bit-for-bit the rows
//     generate_syndrome() would have stored — and halo rows are
//     demand-paged: the first read of a remote node fetches its whole
//     d-pivot row block into a per-shard page cache, after which every
//     further pivot of that node is served locally. Fetch-once holds by
//     construction (the cache never evicts), so the exchange traffic a
//     real cluster would see is exactly halo_rows_exchanged().
//
// Row reads are *uncounted* here for the same reason TableOracle::row_bits_at
// is: a row read is a physical access pattern. The sharded solver charges
// exactly the pairs it consults, so counted look-ups stay bit-identical to
// the monolithic run — the exchange adds traffic, never look-ups.
//
// Thread safety: one shard's store is touched only by the worker scanning
// that shard (the lazy page cache is unsynchronised by design).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "distributed/shard_plan.hpp"
#include "graph/implicit_graph.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/syndrome.hpp"
#include "util/types.hpp"

namespace mmdiag {

class ShardRowStore {
 public:
  /// Table mode: copy this shard's owned rows from `syndrome` and perform
  /// the eager halo exchange. The syndrome and view must outlive the store.
  ShardRowStore(const ShardPlan& plan, unsigned shard,
                const ImplicitGraph& view, const Syndrome& syndrome);

  /// Lazy mode: compute rows on consultation from the hidden fault set;
  /// halo rows are demand-paged. faults and view must outlive the store.
  ShardRowStore(const ShardPlan& plan, unsigned shard,
                const ImplicitGraph& view, const FaultSet& faults,
                FaultyBehavior behavior, std::uint64_t seed);

  /// The packed s_u(pivot, ·) row — identical bits to
  /// Syndrome::row_bits(u, pivot). Throws std::logic_error when u is
  /// outside this shard's owned range and halo ring.
  [[nodiscard]] std::uint64_t row_bits(Node u, unsigned pivot) const;

  [[nodiscard]] bool lazy() const noexcept { return syndrome_ == nullptr; }
  [[nodiscard]] unsigned shard() const noexcept { return shard_; }

  /// Whole d-pivot row blocks moved across the shard boundary: the full
  /// halo in table mode, the demand-paged subset so far in lazy mode.
  [[nodiscard]] std::uint64_t halo_blocks_exchanged() const noexcept {
    return lazy() ? halo_page_.size() : plan_->halo_size(shard_);
  }

  /// Resident bytes of row storage (owned + halo copies, page cache and
  /// its index; the lazy owned side is 0 by design).
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;

 private:
  [[nodiscard]] std::uint64_t compute_row(Node u, unsigned pivot) const;
  void compute_block(Node u, std::uint64_t* out) const;
  [[nodiscard]] const std::uint64_t* halo_block(Node u) const;

  const ShardPlan* plan_;
  unsigned shard_;
  const ImplicitGraph* view_;
  unsigned degree_;

  // Table mode.
  const Syndrome* syndrome_ = nullptr;
  std::vector<std::uint64_t> owned_words_;  // (u - lo) * d + pivot
  std::vector<std::uint64_t> halo_words_;   // halo_slot(u) * d + pivot

  // Lazy mode.
  const FaultSet* faults_ = nullptr;
  FaultyBehavior behavior_ = FaultyBehavior::kRandom;
  std::uint64_t seed_ = 0;
  mutable std::unordered_map<Node, std::uint32_t> halo_page_;  // node -> block
  mutable std::vector<std::uint64_t> halo_pool_;  // blocks of d words
};

}  // namespace mmdiag
