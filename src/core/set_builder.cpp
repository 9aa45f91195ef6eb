#include "core/set_builder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "util/rng.hpp"

namespace mmdiag {

namespace {

/// kHashSpread's candidate order, shared by the scalar and sliced rounds:
/// by child, then so the first edge per child carries the parent
/// minimising mix64(parent, child) — the coordination-free spread a
/// distributed joiner can compute from its offers alone — with the parent
/// breaking hash ties, so the order is strict and total.
constexpr auto hash_spread_order = [](const auto& a, const auto& b) {
  if (a.child != b.child) return a.child < b.child;
  const auto ha = mix64(a.parent, a.child);
  const auto hb = mix64(b.parent, b.child);
  if (ha != hb) return ha < hb;
  return a.parent < b.parent;
};

}  // namespace

SetBuilder::SetBuilder(const Graph& g, ParentRule rule)
    : graph_(&g), rule_(rule) {
  const std::size_t n = g.num_nodes();
  in_set_.resize(n);
  is_contributor_.resize(n);
  frontier_words_[0].assign((n + 63) / 64, 0u);
  frontier_words_[1].assign((n + 63) / 64, 0u);
  parent_pos_of_.assign(n, 0u);
}

// The scalar driver behind run/run_restricted.
SetBuilderResult SetBuilder::run_impl(const SyndromeOracle& oracle, Node u0,
                                      unsigned delta, const PartitionPlan* plan,
                                      std::uint32_t comp) {
  const Graph& g = *graph_;
  if (u0 >= g.num_nodes()) throw std::invalid_argument("Set_Builder: bad seed");
  if (plan != nullptr && plan->component_of(u0) != comp) {
    throw std::invalid_argument("Set_Builder: seed outside its component");
  }
  // Restricted probes check eligibility once per scanned neighbour; for the
  // arithmetic prefix plans (the bit-string families, including every
  // hypercube variant) one dynamic_cast per run turns that virtual call
  // into an inline shift.
  const auto* prefix_plan =
      plan != nullptr ? dynamic_cast<const PrefixBitsPlan*>(plan) : nullptr;
  const unsigned prefix_shift =
      prefix_plan != nullptr ? prefix_plan->suffix_bits() : 0;
  auto eligible = [&](Node v) {
    if (plan == nullptr) return true;
    if (prefix_plan != nullptr) return (v >> prefix_shift) == comp;
    return plan->component_of(v) == comp;
  };

  in_set_.clear();
  is_contributor_.clear();
  // The frontier bitmaps are clean by consumption on every normal exit
  // (words zero as they are read), so a full fill is only owed when the
  // previous run was abandoned mid-way — an oracle that threw between
  // admissions.
  if (!frontier_clean_) {
    std::fill(frontier_words_[0].begin(), frontier_words_[0].end(), 0u);
    std::fill(frontier_words_[1].begin(), frontier_words_[1].end(), 0u);
  }
  frontier_clean_ = false;

  SetBuilderResult result;
  const std::size_t member_hint =
      plan != nullptr
          ? static_cast<std::size_t>(plan->component_size())
          : std::max<std::size_t>(last_unrestricted_size_,
                                  std::size_t{g.degree(u0)} + 1);
  result.members.reserve(member_hint);
  result.parent.reserve(member_hint);
  result.members.push_back(u0);
  result.parent.push_back(kNoNode);
  in_set_.insert(u0);

  // Flips each round: `fi` indexes the frontier being filled, and
  // [fill_lo, fill_hi) is the word range its admissions have set, so the
  // next round scans only that range (a restricted probe pays for its
  // component, not for N/64 words per round).
  unsigned fi = 0;
  std::size_t next_count = 0;
  std::size_t fill_lo = SIZE_MAX;
  std::size_t fill_hi = 0;

  auto add_member = [&](Node v, Node parent, Graph::MirrorPos parent_pos) {
    result.members.push_back(v);
    result.parent.push_back(parent);
    parent_pos_of_[v] = parent_pos;
    const std::size_t w = v >> 6;
    frontier_words_[fi][w] |= std::uint64_t{1} << (v & 63);
    fill_lo = std::min(fill_lo, w);
    fill_hi = std::max(fill_hi, w + 1);
    ++next_count;
  };

  // ---- Round 1: U_1 from u0's pair tests. ----------------------------------
  {
    const auto adj = g.neighbors(u0);
    const auto mirror = g.mirror_positions(u0);
    // Eligible neighbour positions (member scratch — no per-run allocation).
    round1_pos_.clear();
    for (unsigned p = 0; p < adj.size(); ++p) {
      if (eligible(adj[p])) round1_pos_.push_back(p);
    }
    for (std::size_t a = 0; a < round1_pos_.size(); ++a) {
      const unsigned pa = round1_pos_[a];
      for (std::size_t b = a + 1; b < round1_pos_.size(); ++b) {
        const unsigned pb = round1_pos_[b];
        const Node va = adj[pa];
        const Node vb = adj[pb];
        // Once both endpoints are members the test adds no information.
        if (in_set_.contains(va) && in_set_.contains(vb)) continue;
        if (!oracle.test(u0, pa, pb)) {
          if (in_set_.insert(va)) add_member(va, u0, mirror[pa]);
          if (in_set_.insert(vb)) add_member(vb, u0, mirror[pb]);
        }
      }
    }
    if (next_count > 0) {
      is_contributor_.insert(u0);
      result.contributors = 1;
      result.rounds = 1;
    }
  }

  // ---- Rounds i >= 2. -------------------------------------------------------
  while (next_count > 0) {
    // Consume the frontier just filled; admissions go to the other bitmap.
    // Word-by-word ascending bit iteration visits frontier nodes in
    // ascending id order — under kLeastFirst exactly the paper's "least
    // contributing node" parent choice, with no sort.
    std::uint64_t* const cur = frontier_words_[fi].data();
    const std::size_t cur_lo = fill_lo;
    const std::size_t cur_hi = fill_hi;
    const std::size_t frontier_count = next_count;
    fi ^= 1;
    next_count = 0;
    fill_lo = SIZE_MAX;
    fill_hi = 0;

    const bool deferred = rule_ != ParentRule::kLeastFirst;
    if (deferred) {
      zero_edges_.clear();
      // Every frontier node offers at most degree-1 candidates; reserving
      // the bound up front means no mid-round regrowth even on the first
      // run (later runs reuse the high-water capacity anyway).
      zero_edges_.reserve(frontier_count *
                          static_cast<std::size_t>(g.max_degree()));
    }
    for (std::size_t w = cur_lo; w < cur_hi; ++w) {
      std::uint64_t bits = cur[w];
      if (bits == 0) continue;
      cur[w] = 0;  // consumed — the bitmap is clean for the round after next
      do {
        const Node u =
            static_cast<Node>((w << 6) + std::countr_zero(bits));
        bits &= bits - 1;
        const unsigned parent_pos = parent_pos_of_[u];
        const auto adj = g.neighbors(u);
        const auto mirror = g.mirror_positions(u);

        // Consult each eligible non-member neighbour against the parent
        // pivot.
        bool contributed = false;
        for (unsigned p = 0; p < adj.size(); ++p) {
          const Node v = adj[p];
          if (p == parent_pos || in_set_.contains(v) || !eligible(v)) {
            continue;
          }
          if (!oracle.test(u, p, parent_pos)) {
            if (!deferred) {
              in_set_.insert(v);
              add_member(v, u, mirror[p]);
              contributed = true;
            } else {
              zero_edges_.push_back(ZeroEdge{u, v, mirror[p]});
            }
          }
        }
        if (!deferred && contributed && is_contributor_.insert(u)) {
          ++result.contributors;
        }
      } while (bits != 0);
    }

    if (deferred) {
      if (rule_ == ParentRule::kSpread) {
        // Pass A: one child per distinct parent, scanning parents in
        // ascending order (zero_edges_ is grouped by parent in that order).
        std::size_t i = 0;
        while (i < zero_edges_.size()) {
          const Node u = zero_edges_[i].parent;
          bool claimed = false;
          std::size_t j = i;
          for (; j < zero_edges_.size() && zero_edges_[j].parent == u; ++j) {
            const Node v = zero_edges_[j].child;
            if (!claimed && in_set_.insert(v)) {
              add_member(v, u, zero_edges_[j].child_parent_pos);
              if (is_contributor_.insert(u)) ++result.contributors;
              claimed = true;
            }
          }
          i = j;
        }
      } else if (rule_ == ParentRule::kHashSpread) {
        std::sort(zero_edges_.begin(), zero_edges_.end(), hash_spread_order);
      }
      // Remaining candidates (all of them under kHashSpread) go to the
      // first admitting parent in edge order.
      for (const ZeroEdge& e : zero_edges_) {
        if (in_set_.insert(e.child)) {
          add_member(e.child, e.parent, e.child_parent_pos);
          if (is_contributor_.insert(e.parent)) ++result.contributors;
        }
      }
    }

    if (next_count > 0) ++result.rounds;
  }

  if (result.contributors > delta) result.all_healthy = true;
  if (plan == nullptr) last_unrestricted_size_ = result.members.size();
  frontier_clean_ = true;
  return result;
}

SetBuilderResult SetBuilder::run(const SyndromeOracle& oracle, Node u0,
                                 unsigned delta) {
  return run_impl(oracle, u0, delta, nullptr, 0);
}

SetBuilderResult SetBuilder::run_restricted(const SyndromeOracle& oracle,
                                            Node u0, unsigned delta,
                                            const PartitionPlan& plan,
                                            std::uint32_t comp) {
  return run_impl(oracle, u0, delta, &plan, comp);
}

void SetBuilder::run_sliced(const BitSlicedOracle& oracle, Node u0,
                            unsigned delta, std::uint64_t active,
                            SlicedLaneResult* out) {
  run_sliced_impl(oracle, u0, delta, active, nullptr, 0, out);
}

void SetBuilder::run_sliced_restricted(const BitSlicedOracle& oracle, Node u0,
                                       unsigned delta, std::uint64_t active,
                                       const PartitionPlan& plan,
                                       std::uint32_t comp,
                                       SlicedLaneResult* out) {
  run_sliced_impl(oracle, u0, delta, active, &plan, comp, out);
}

// The cohort kernel. One instruction stream drives every lane in `active`
// through the same rounds run_impl executes, with per-node lane masks in
// place of the scalar per-run bitsets:
//   s_member_[v]       bit L = v ∈ lane L's U_r            (in_set_)
//   s_contrib_[v]      bit L = v internal in lane L's tree (is_contributor_)
//   s_frontier_[·][v]  bit L = v in lane L's frontier      (frontier_words_)
// The union frontier bitmap iterates nodes ascending and positions are
// scanned ascending within each node, so projecting any single lane out of
// the interleaved stream reproduces exactly the scalar execution order —
// which is why members, rounds, contributors AND charged look-ups are
// bit-identical per lane (asserted by tests/dispatch_equiv_test.cpp and
// raced by the fuzzer's cohort voice).
//
// Divergence peel. All lanes admitting a node through the same parent
// position share one transposed row. Round 1 cannot diverge (every parent
// is u0 and the recorded position is the mirror of the child's own fixed
// adjacency slot); from round 2 on, a lane whose tree parent of a node
// differs from the node's first-recorded position peels off to a scalar
// per-node walk over that lane's own packed row, then rejoins the cohort
// stream. Lanes are disjoint state, so interleaving the peel with the
// shared stream never changes any lane's own order of consults.
//
// For the deferred rules the round buffer carries lane masks per candidate
// edge. kSpread's pass A keeps the scalar `claimed` flag as one bit per
// lane; kHashSpread's comparator is a strict total order over (parent,
// child) with at most one event per pair and round, so the sorted combined
// stream filtered to one lane is that lane's scalar sorted stream.
void SetBuilder::run_sliced_impl(const BitSlicedOracle& oracle, Node u0,
                                 unsigned delta, std::uint64_t active,
                                 const PartitionPlan* plan, std::uint32_t comp,
                                 SlicedLaneResult* out) {
  const Graph& g = *graph_;
  if (u0 >= g.num_nodes()) throw std::invalid_argument("Set_Builder: bad seed");
  if (plan != nullptr && plan->component_of(u0) != comp) {
    throw std::invalid_argument("Set_Builder: seed outside its component");
  }
  if (g.max_degree() > 64) {
    throw std::invalid_argument(
        "Set_Builder: run_sliced needs word-wide rows (degree <= 64)");
  }
  if ((active & ~oracle.full_mask()) != 0) {
    throw std::invalid_argument(
        "Set_Builder: active mask names lanes the oracle does not have");
  }
  for (std::uint64_t m = active; m != 0; m &= m - 1) {
    out[std::countr_zero(m)] = SlicedLaneResult{};
  }
  if (active == 0) return;

  // Same prefix-plan devirtualisation as run_impl.
  const auto* prefix_plan =
      plan != nullptr ? dynamic_cast<const PrefixBitsPlan*>(plan) : nullptr;
  const unsigned prefix_shift =
      prefix_plan != nullptr ? prefix_plan->suffix_bits() : 0;
  auto eligible = [&](Node v) {
    if (plan == nullptr) return true;
    if (prefix_plan != nullptr) return (v >> prefix_shift) == comp;
    return plan->component_of(v) == comp;
  };

  const std::size_t n = g.num_nodes();
  if (s_member_.size() < n) {
    s_member_.assign(n, 0);
    s_contrib_.assign(n, 0);
    s_frontier_[0].assign(n, 0);
    s_frontier_[1].assign(n, 0);
    s_shared_pos_.assign(n, 0);
    s_divergent_.assign(n, 0);
    s_frontier_union_[0].assign((n + 63) / 64, 0);
    s_frontier_union_[1].assign((n + 63) / 64, 0);
    s_divergent_pos_.assign(n * 64, 0);
  }
  // Clear the previous sliced run through its touched-node list — O(|U_r|)
  // resets, like the scalar dirty bitsets. (Union-bitmap words may be
  // zeroed whole: only touched nodes ever set bits in them.)
  for (const Node v : s_touched_) {
    s_member_[v] = 0;
    s_contrib_[v] = 0;
    s_divergent_[v] = 0;
    s_frontier_[0][v] = 0;
    s_frontier_[1][v] = 0;
    s_frontier_union_[0][v >> 6] = 0;
    s_frontier_union_[1][v >> 6] = 0;
  }
  s_touched_.clear();

  unsigned fi = 0;  // frontier being filled
  // Word range of s_frontier_union_[fi] that admissions have set; the next
  // round scans only that range, as in run_impl.
  std::size_t fill_lo = SIZE_MAX;
  std::size_t fill_hi = 0;
  std::uint64_t admitted_round = 0;

  // Per-lane contributor/member tallies live in vertical (carry-save) bit
  // planes, like the oracle's look-up counters: adding a lane mask is a
  // ripple add (~2 word ops regardless of popcount) instead of a per-set-bit
  // scalar loop. Folds happen only where a count is actually read — the
  // certify check and the final sweep.
  constexpr unsigned kPlanes = 6;
  std::array<std::uint64_t, kPlanes> contrib_planes{};
  std::array<std::uint64_t, kPlanes> member_planes{};
  auto vadd = [out](std::array<std::uint64_t, kPlanes>& planes,
                    std::size_t SlicedLaneResult::*slot,
                    std::uint64_t lanes) {
    std::uint64_t carry = lanes;
    for (auto& plane : planes) {
      const std::uint64_t t = plane & carry;
      plane ^= carry;
      carry = t;
      if (carry == 0) return;
    }
    for (; carry != 0; carry &= carry - 1) {
      out[std::countr_zero(carry)].*slot += std::uint64_t{1} << kPlanes;
    }
  };
  auto vfold = [out](std::array<std::uint64_t, kPlanes>& planes,
                     std::size_t SlicedLaneResult::*slot) {
    for (unsigned k = 0; k < kPlanes; ++k) {
      for (std::uint64_t m = planes[k]; m != 0; m &= m - 1) {
        out[std::countr_zero(m)].*slot += std::uint64_t{1} << k;
      }
      planes[k] = 0;
    }
  };

  auto credit = [&](Node u, std::uint64_t lanes) {
    const std::uint64_t newly = lanes & ~s_contrib_[u];
    if (newly == 0) return;
    s_contrib_[u] |= newly;
    vadd(contrib_planes, &SlicedLaneResult::contributors, newly);
  };

  auto admit = [&](Node v, std::uint64_t lanes, std::uint32_t parent_pos) {
    const std::uint64_t before = s_member_[v];
    if (before == 0) {
      s_touched_.push_back(v);
      s_shared_pos_[v] = parent_pos;
    } else if (s_shared_pos_[v] != parent_pos) {
      // These lanes' tree parent sits at a different slot of adj(v) than
      // the first admitter's: record the position on the side; v runs the
      // peel path for them when consumed as a frontier node.
      s_divergent_[v] |= lanes;
      for (std::uint64_t m = lanes; m != 0; m &= m - 1) {
        s_divergent_pos_[(static_cast<std::size_t>(v) << 6) |
                         static_cast<unsigned>(std::countr_zero(m))] =
            static_cast<std::uint8_t>(parent_pos);
      }
    }
    s_member_[v] = before | lanes;
    s_frontier_[fi][v] |= lanes;
    const std::size_t w = v >> 6;
    s_frontier_union_[fi][w] |= std::uint64_t{1} << (v & 63);
    fill_lo = std::min(fill_lo, w);
    fill_hi = std::max(fill_hi, w + 1);
    admitted_round |= lanes;
    vadd(member_planes, &SlicedLaneResult::member_count, lanes);
  };

  // Seed: member of every active lane.
  s_touched_.push_back(u0);
  s_member_[u0] = active;
  vadd(member_planes, &SlicedLaneResult::member_count, active);

  const bool deferred = rule_ != ParentRule::kLeastFirst;

  // ---- Round 1: U_1 from u0's pair tests, all lanes at once. ---------------
  {
    const auto adj = g.neighbors(u0);
    const auto mirror = g.mirror_positions(u0);
    round1_pos_.clear();
    for (unsigned p = 0; p < adj.size(); ++p) {
      if (eligible(adj[p])) round1_pos_.push_back(p);
    }
    for (std::size_t a = 0; a < round1_pos_.size(); ++a) {
      const unsigned pa = round1_pos_[a];
      const Node va = adj[pa];
      const std::uint64_t* row = nullptr;
      for (std::size_t b = a + 1; b < round1_pos_.size(); ++b) {
        const unsigned pb = round1_pos_[b];
        const Node vb = adj[pb];
        // Per lane: once both endpoints are members the test adds no
        // information (run_impl's skip, as a mask).
        const std::uint64_t consult =
            active & ~(s_member_[va] & s_member_[vb]);
        if (consult == 0) continue;
        if (row == nullptr) row = oracle.transposed_row(u0, pa);
        oracle.charge(consult);
        const std::uint64_t zero = consult & ~row[pb];
        if (zero == 0) continue;
        // Round-1 parents are always u0; no divergence is possible here.
        const std::uint64_t adm_a = zero & ~s_member_[va];
        if (adm_a != 0) admit(va, adm_a, mirror[pa]);
        const std::uint64_t adm_b = zero & ~s_member_[vb];
        if (adm_b != 0) admit(vb, adm_b, mirror[pb]);
      }
    }
    if (admitted_round != 0) {
      credit(u0, admitted_round);
      for (std::uint64_t m = admitted_round; m != 0; m &= m - 1) {
        out[std::countr_zero(m)].rounds = 1;
      }
    }
  }

  // ---- Rounds i >= 2. -------------------------------------------------------
  // Lanes that admitted someone last round; the others have reached U_r.
  std::uint64_t looping = admitted_round;
  while (looping != 0) {

    std::uint64_t* const cur = s_frontier_[fi].data();
    std::uint64_t* const cur_union = s_frontier_union_[fi].data();
    const std::size_t cur_lo = fill_lo;
    const std::size_t cur_hi = fill_hi;
    fi ^= 1;
    fill_lo = SIZE_MAX;
    fill_hi = 0;
    admitted_round = 0;
    if (deferred) s_zero_edges_.clear();

    for (std::size_t w = cur_lo; w < cur_hi; ++w) {
      std::uint64_t bits = cur_union[w];
      if (bits == 0) continue;
      cur_union[w] = 0;  // consumed
      do {
        const Node u = static_cast<Node>((w << 6) + std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint64_t fmask = cur[u];
        cur[u] = 0;  // consumed
        if (fmask == 0) continue;
        const auto adj = g.neighbors(u);
        const auto mirror = g.mirror_positions(u);
        std::uint64_t contributed = 0;

        // Cohort stream: every lane whose tree parent of u sits at the
        // shared (first-recorded) position runs off one lane-major row.
        // The consult masks are pre-scanned: positions name distinct
        // neighbours, so no admit at one position can change another's
        // mask, and knowing how many columns the node actually reads picks
        // the cheaper flip — a full transpose when several are consulted,
        // a per-column gather-extract when (typically, deep in a solve)
        // only one or two are.
        const std::uint64_t shared = fmask & ~s_divergent_[u];
        if (shared != 0) {
          const unsigned parent_pos = s_shared_pos_[u];
          std::uint64_t consult_of[64];
          unsigned pos_of[64];
          unsigned needed = 0;
          for (unsigned p = 0; p < adj.size(); ++p) {
            const Node v = adj[p];
            if (p == parent_pos || !eligible(v)) continue;
            const std::uint64_t consult = shared & ~s_member_[v];
            if (consult == 0) continue;
            consult_of[needed] = consult;
            pos_of[needed++] = p;
          }
          const std::uint64_t* row = nullptr;
          if (needed >= 3) {
            row = oracle.transposed_row(u, parent_pos);
          } else if (needed != 0) {
            // A prior run of this cohort (a probe, for the final pass) may
            // have transposed this exact (u, pivot) already; the cached
            // block is cheaper than even a 1-column gather.
            row = oracle.cached_row(u, parent_pos);
            if (row == nullptr) oracle.gather_rows(u, parent_pos);
          }
          for (unsigned k = 0; k < needed; ++k) {
            const unsigned p = pos_of[k];
            const std::uint64_t consult = consult_of[k];
            oracle.charge(consult);
            const std::uint64_t zero =
                consult & ~(row != nullptr ? row[p] : oracle.column(p));
            if (zero == 0) continue;
            const Node v = adj[p];
            if (!deferred) {
              admit(v, zero, mirror[p]);
              contributed |= zero;
            } else {
              s_zero_edges_.push_back(SlicedEdge{u, v, mirror[p], zero});
            }
          }
        }

        // Peel path: divergent lanes replay the scalar per-node walk over
        // their own packed row (their parent pivot differs), charging
        // single-lane masks.
        for (std::uint64_t dm = fmask & s_divergent_[u]; dm != 0;
             dm &= dm - 1) {
          const unsigned L = static_cast<unsigned>(std::countr_zero(dm));
          const std::uint64_t lane_bit = std::uint64_t{1} << L;
          const unsigned parent_pos =
              s_divergent_pos_[(static_cast<std::size_t>(u) << 6) | L];
          std::uint64_t row = 0;
          bool have_row = false;
          for (unsigned p = 0; p < adj.size(); ++p) {
            const Node v = adj[p];
            if (p == parent_pos || (s_member_[v] & lane_bit) != 0 ||
                !eligible(v)) {
              continue;
            }
            if (!have_row) {
              row = oracle.lane(L).syndrome().row_bits(u, parent_pos);
              have_row = true;
            }
            oracle.charge(lane_bit);
            if ((row >> p) & 1) continue;
            if (!deferred) {
              admit(v, lane_bit, mirror[p]);
              contributed |= lane_bit;
            } else {
              s_zero_edges_.push_back(SlicedEdge{u, v, mirror[p], lane_bit});
            }
          }
        }

        if (!deferred && contributed != 0) credit(u, contributed);
      } while (bits != 0);
    }

    if (deferred) {
      if (rule_ == ParentRule::kSpread) {
        // Pass A, lane-masked: per parent group, each lane claims its
        // first still-admittable child (the scalar `claimed` flag, one
        // bit per lane). Events stay grouped by parent in ascending
        // order — the shared stream and any peel events of the same node
        // are pushed contiguously.
        std::size_t i = 0;
        while (i < s_zero_edges_.size()) {
          const Node u = s_zero_edges_[i].parent;
          std::uint64_t claimed = 0;
          std::size_t j = i;
          for (; j < s_zero_edges_.size() && s_zero_edges_[j].parent == u;
               ++j) {
            const SlicedEdge& e = s_zero_edges_[j];
            const std::uint64_t adm =
                e.lanes & ~claimed & ~s_member_[e.child];
            if (adm != 0) {
              admit(e.child, adm, e.child_parent_pos);
              credit(u, adm);
              claimed |= adm;
            }
          }
          i = j;
        }
      } else if (rule_ == ParentRule::kHashSpread) {
        std::sort(s_zero_edges_.begin(), s_zero_edges_.end(),
                  hash_spread_order);
      }
      // Remaining candidates (all of them under kHashSpread) go to the
      // first admitting parent in edge order, per lane.
      for (const SlicedEdge& e : s_zero_edges_) {
        const std::uint64_t adm = e.lanes & ~s_member_[e.child];
        if (adm != 0) {
          admit(e.child, adm, e.child_parent_pos);
          credit(e.parent, adm);
        }
      }
    }

    for (std::uint64_t m = admitted_round; m != 0; m &= m - 1) {
      ++out[std::countr_zero(m)].rounds;
    }
    looping = admitted_round;
  }

  vfold(contrib_planes, &SlicedLaneResult::contributors);
  vfold(member_planes, &SlicedLaneResult::member_count);
  for (std::uint64_t m = active; m != 0; m &= m - 1) {
    const unsigned L = static_cast<unsigned>(std::countr_zero(m));
    if (out[L].contributors > delta) out[L].all_healthy = true;
  }
}

}  // namespace mmdiag
