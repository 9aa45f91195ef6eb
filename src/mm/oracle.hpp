// Syndrome oracles: how diagnosis algorithms read test results.
//
// §6 of the paper argues that Set_Builder's advantage over Chiang–Tan is
// that it consults only (Δ-1)(Δ/2 + |U_r| - 1) results instead of the whole
// table. Every oracle therefore counts look-ups, and a lazy oracle serves
// syndromes that were never materialised (equivalent to performing tests on
// demand in the machine).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/syndrome.hpp"
#include "util/types.hpp"

namespace mmdiag {

class SyndromeOracle {
 public:
  virtual ~SyndromeOracle() = default;

  /// s_u over adjacency positions i != j of u. Counted.
  [[nodiscard]] bool test(Node u, unsigned i, unsigned j) const {
    ++lookups_;
    return test_impl(u, i, j);
  }

  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }
  void reset_lookups() const noexcept { lookups_ = 0; }

  /// Bulk accounting for word-granular readers: a caller that served `n`
  /// logical look-ups from one packed row read records them here so the
  /// counter stays bit-identical to having called test() n times.
  void add_lookups(std::uint64_t n) const noexcept { lookups_ += n; }

  /// False only for the graph-less FaultFreeOracle: graph() must not be
  /// called on it. Every oracle that reads a syndrome carries its graph.
  [[nodiscard]] bool has_graph() const noexcept { return graph_ != nullptr; }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

 protected:
  SyndromeOracle() = default;
  explicit SyndromeOracle(const Graph& g) : graph_(&g) {}
  [[nodiscard]] virtual bool test_impl(Node u, unsigned i, unsigned j) const = 0;

 private:
  const Graph* graph_ = nullptr;
  mutable std::uint64_t lookups_ = 0;
};

/// Reads a pre-materialised syndrome table. Throws std::invalid_argument
/// when the table was laid out for a graph of another node count or degree
/// sequence: reading it through `g`'s positions would run out of bounds.
class TableOracle final : public SyndromeOracle {
 public:
  TableOracle(const Graph& g, const Syndrome& syndrome)
      : SyndromeOracle(g), syndrome_(&syndrome) {
    if (!syndrome.laid_out_for(g)) {
      throw std::invalid_argument(
          "TableOracle: the syndrome is laid out for another graph");
    }
  }

  /// Split row addressing (Syndrome::row_location / row_bits_at): cohort
  /// readers resolve a row's location once — it is layout-determined, hence
  /// identical for every syndrome on the same graph (u·d² + i·d on a
  /// regular graph) — and issue one raw read per lane. Deliberately
  /// *uncounted*: a row read is a physical access pattern, not a batch of
  /// logical look-ups, so the cohort kernel charges exactly the pairs it
  /// consults (§6's look-up complexity is about results consulted, not
  /// words touched).
  [[nodiscard]] Syndrome::RowLocation row_location(Node u,
                                                   unsigned i) const noexcept {
    return syndrome_->row_location(u, i);
  }
  [[nodiscard]] std::uint64_t row_bits_at(
      Syndrome::RowLocation loc) const noexcept {
    return syndrome_->row_bits_at(loc);
  }

  /// The backing table, for the cohort kernel's divergent-lane peel path:
  /// it reads one lane's packed row (Syndrome::row_bits) and charges the
  /// pairs it consults itself.
  [[nodiscard]] const Syndrome& syndrome() const noexcept {
    return *syndrome_;
  }

 protected:
  [[nodiscard]] bool test_impl(Node u, unsigned i, unsigned j) const override {
    return syndrome_->test(u, i, j);
  }

 private:
  const Syndrome* syndrome_;
};

/// Computes results on demand from the (hidden) fault set — the "perform the
/// test only when consulted" execution mode of §6. Deterministic: repeated
/// look-ups of the same pair agree.
class LazyOracle final : public SyndromeOracle {
 public:
  LazyOracle(const Graph& g, const FaultSet& faults, FaultyBehavior behavior,
             std::uint64_t seed)
      : SyndromeOracle(g), faults_(&faults), behavior_(behavior), seed_(seed) {}

 protected:
  [[nodiscard]] bool test_impl(Node u, unsigned i, unsigned j) const override {
    const Node v = graph().neighbor(u, i);
    const Node w = graph().neighbor(u, j);
    if (!faults_->is_faulty(u)) {
      return faults_->is_faulty(v) || faults_->is_faulty(w);
    }
    return faulty_test_result(behavior_, seed_, u, v, w, faults_->is_faulty(v),
                              faults_->is_faulty(w));
  }

 private:
  const FaultSet* faults_;
  FaultyBehavior behavior_;
  std::uint64_t seed_;
};

/// The all-healthy syndrome (every test 0) — used to calibrate partition
/// certification without materialising anything. It reads no adjacency, so
/// it needs no graph at all; the graph-reference ctor is kept for callers
/// that have one handy.
class FaultFreeOracle final : public SyndromeOracle {
 public:
  FaultFreeOracle() = default;
  explicit FaultFreeOracle(const Graph& g) : SyndromeOracle(g) {}

 protected:
  [[nodiscard]] bool test_impl(Node, unsigned, unsigned) const override {
    return false;
  }
};

// ---------------------------------------------------------------------------
// Bitsliced cohort view: structure-of-arrays over up to 64 TableOracles.
// ---------------------------------------------------------------------------

/// A lane-major, lazily-transposed view of up to 64 syndromes on one graph.
///
/// Row storage (Syndrome::row_bits) packs one syndrome's s_u(pivot, ·) row
/// into a word: bit p = outcome at neighbour position p.
/// The cohort kernel (SetBuilder::run_sliced) wants the *other* axis in
/// registers — for a fixed (u, pivot, p), the outcome of every cohort
/// member at once — so transposed_row() gathers each lane's packed row and
/// flips the 64×64 bit block (transpose64): word p of the result has bit
/// L = lane L's s_u(pivot, p). One gather+transpose then serves up to
/// 64 lanes × degree consults. The transpose is lazy and per-(u, pivot):
/// a whole-table transpose would touch ~60× more pairs than a solve reads.
///
/// Look-up accounting is per lane and charged per *consulted pair*, never
/// per word read, so each lane's counter stays bit-identical to a scalar
/// run of that lane alone: charge(mask) adds one look-up to every lane in
/// the mask. Charges land in vertical (carry-save) bit-plane counters —
/// one ripple-add of the mask, ~2 word ops amortised — instead of a
/// 64-iteration scalar loop per charge; lane_lookups() folds the planes.
/// The kernel flushes lane_lookups() into each TableOracle's counter via
/// add_lookups().
///
/// Single-threaded by design (one cohort per worker lane): the transpose
/// scratch and counters are unsynchronised, like every oracle's counter.
///
/// Transposed blocks persist in a per-cohort cache (direct-mapped,
/// kCacheSlots blocks) for the oracle's lifetime — one diagnose_cohort,
/// probes and final runs included. The final unrestricted run re-reads
/// rows the probe phase already flipped (the certified seed's round-1
/// rows at minimum; every shared (node, pivot) when the rules coincide),
/// and a cache hit serves the stored block instead of re-gathering and
/// re-transposing. The cache changes which words are *touched*, never
/// their content — rows are immutable for the cohort's lifetime — so lane
/// results and per-pair charges are bit-identical with it on
/// (tests/dispatch_equiv_test.cpp asserts results, look-ups and hits > 0).
class BitSlicedOracle {
 public:
  static constexpr unsigned kMaxLanes = 64;
  /// Direct-mapped transpose-cache slots (blocks of 64 words, ~1 MiB
  /// resident once touched). Collisions overwrite — the cache is a reuse
  /// accelerator, never a correctness surface.
  static constexpr std::size_t kCacheSlots = 2048;

  explicit BitSlicedOracle(const Graph& g) : graph_(&g) {
    assert(g.max_degree() <= 64 &&
           "BitSlicedOracle: rows wider than one word — use the scalar path");
  }

  /// Registers the next lane (at most 64). The oracle must address the
  /// same adjacency as graph() — the standard cohort-by-shared-spec rule.
  unsigned add_lane(const TableOracle& lane) {
    assert(width_ < kMaxLanes && "BitSlicedOracle: cohort wider than 64");
    lanes_[width_] = &lane;
    // A cached block encodes the cohort width it was built at (unused lanes
    // zero-filled), so widening the cohort invalidates everything.
    if (!cache_tags_.empty()) {
      std::fill(cache_tags_.begin(), cache_tags_.end(), kEmptyTag);
    }
    return width_++;
  }

  [[nodiscard]] unsigned width() const noexcept { return width_; }
  [[nodiscard]] const TableOracle& lane(unsigned i) const noexcept {
    return *lanes_[i];
  }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// All registered lanes as a mask: bit L set for lane L.
  [[nodiscard]] std::uint64_t full_mask() const noexcept {
    return width_ >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << width_) - 1;
  }

  /// The cohort's s_u(pivot, ·) rows flipped lane-major: word p of the
  /// returned array has bit L = lane L's s_u(pivot, p); only words
  /// p < degree(u) are meaningful. Uncounted, like row_bits_at — callers
  /// charge() exactly the pairs they consult. The pointer targets the
  /// persistent row cache and stays valid until add_lane() or a colliding
  /// (u, pivot) overwrites the slot; treat it as single-use, like scratch.
  [[nodiscard]] const std::uint64_t* transposed_row(Node u,
                                                    unsigned pivot) const {
    const std::uint64_t key = cache_key(u, pivot);
    std::uint64_t* block = cache_block(key);
    if (cache_tags_[cache_slot(key)] == key) {
      ++cache_hits_;
      return block;
    }
    gather_rows(u, pivot);
    for (unsigned i = width_; i < kMaxLanes; ++i) scratch_[i] = 0;
    transpose64(scratch_.data());
    std::copy(scratch_.begin(), scratch_.end(), block);
    cache_tags_[cache_slot(key)] = key;
    return block;
  }

  /// The cached transposed block for (u, pivot), or nullptr when the cache
  /// has no current entry for it. Lets the gather/column fast path (reads
  /// of < 3 columns) still reuse a block a full transpose already paid
  /// for, without paying one itself on a miss.
  [[nodiscard]] const std::uint64_t* cached_row(Node u, unsigned pivot) const {
    if (cache_tags_.empty()) return nullptr;
    const std::uint64_t key = cache_key(u, pivot);
    if (cache_tags_[cache_slot(key)] != key) return nullptr;
    ++cache_hits_;
    return cache_blocks_.data() + cache_slot(key) * kMaxLanes;
  }

  /// Transposed blocks served from the cache since construction. Not an
  /// accounting counter — reset_accounting() leaves it alone (the cache
  /// survives across probes precisely so the final run hits it).
  [[nodiscard]] std::uint64_t row_cache_hits() const noexcept {
    return cache_hits_;
  }

  /// Gathers each lane's packed s_u(pivot, ·) row into internal scratch
  /// *without* transposing — pair with column() when only a few positions
  /// will be consulted. A full 64×64 transpose costs ~770 word ops flat;
  /// extracting a single column costs ~4 per lane, so the gather+column
  /// route wins whenever fewer than ~3 columns are read (deep rounds of a
  /// solve consult ≈1 position per node). Uncounted; invalidates the
  /// previous gather/transpose.
  void gather_rows(Node u, unsigned pivot) const {
    // The row's location is layout-determined and the cohort rule pins all
    // lanes to one graph, so resolve it once instead of re-walking each
    // lane's (identical) offset/degree tables — that alone halves the
    // scattered cache lines a gather touches.
    const Syndrome::RowLocation loc = lanes_[0]->row_location(u, pivot);
    for (unsigned i = 0; i < width_; ++i) {
      scratch_[i] = lanes_[i]->row_bits_at(loc);
    }
  }

  /// Column p of the last gather_rows() block: bit L = lane L's
  /// s_u(pivot, p) — the same word transposed_row()[p] would hold.
  [[nodiscard]] std::uint64_t column(unsigned p) const noexcept {
    std::uint64_t c = 0;
    for (unsigned i = 0; i < width_; ++i) {
      c |= ((scratch_[i] >> p) & std::uint64_t{1}) << i;
    }
    return c;
  }

  // --- per-lane look-up accounting ----------------------------------------

  /// Pending charges per plane before a lane's vertical counter spills into
  /// its scalar slot: 2^kPlanes - 1 = 63.
  static constexpr unsigned kPlanes = 6;

  /// Zeroes every lane counter.
  void reset_accounting() const noexcept {
    served_.fill(0);
    planes_.fill(0);
  }

  /// One syndrome look-up for every lane in `lanes`: a carry-save ripple
  /// add of the mask into the bit planes (bit L of plane k = bit k of lane
  /// L's pending count). The ripple terminates at the first carry-free
  /// plane, so the common cost is one or two word ops, independent of how
  /// many lanes the mask names.
  void charge(std::uint64_t lanes) const noexcept {
    std::uint64_t carry = lanes;
    for (unsigned k = 0; k < kPlanes; ++k) {
      const std::uint64_t t = planes_[k] & carry;
      planes_[k] ^= carry;
      carry = t;
      if (carry == 0) return;
    }
    // Lanes that just wrapped 63 pending charges spill 64 at once.
    for (; carry != 0; carry &= carry - 1) {
      served_[std::countr_zero(carry)] += std::uint64_t{1} << kPlanes;
    }
  }

  /// Look-ups charged to lane L since the last reset_accounting(). Folds
  /// the pending planes first (cheap, and callers read each lane once).
  [[nodiscard]] std::uint64_t lane_lookups(unsigned L) const noexcept {
    fold();
    return served_[L];
  }

 private:
  void fold() const noexcept {
    for (unsigned k = 0; k < kPlanes; ++k) {
      for (std::uint64_t m = planes_[k]; m != 0; m &= m - 1) {
        served_[std::countr_zero(m)] += std::uint64_t{1} << k;
      }
      planes_[k] = 0;
    }
  }

  // (u, pivot) packs into one word because pivot < 64; the tag is the key
  // itself, and kEmptyTag is unreachable (u < 2^32 keeps bit 63 clear).
  static constexpr std::uint64_t kEmptyTag = ~std::uint64_t{0};
  static std::uint64_t cache_key(Node u, unsigned pivot) noexcept {
    return (std::uint64_t{u} << 6) | pivot;
  }
  static std::size_t cache_slot(std::uint64_t key) noexcept {
    static_assert(kCacheSlots == std::size_t{1} << 11);
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - 11));
  }
  std::uint64_t* cache_block(std::uint64_t key) const {
    if (cache_tags_.empty()) {
      // Lazily sized on first use: a cohort that never transposes (scalar
      // fallback paths) never pays the ~1 MiB.
      cache_tags_.assign(kCacheSlots, kEmptyTag);
      cache_blocks_.resize(kCacheSlots * kMaxLanes);
    }
    return cache_blocks_.data() + cache_slot(key) * kMaxLanes;
  }

  const Graph* graph_;
  unsigned width_ = 0;
  std::array<const TableOracle*, kMaxLanes> lanes_{};
  mutable std::array<std::uint64_t, kMaxLanes> scratch_{};
  mutable std::array<std::uint64_t, kMaxLanes> served_{};
  mutable std::array<std::uint64_t, kPlanes> planes_{};
  mutable std::vector<std::uint64_t> cache_tags_;
  mutable std::vector<std::uint64_t> cache_blocks_;  // slot * kMaxLanes words
  mutable std::uint64_t cache_hits_ = 0;
};

}  // namespace mmdiag
