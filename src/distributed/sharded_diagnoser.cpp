#include "distributed/sharded_diagnoser.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "util/enum_names.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mmdiag {

namespace {

std::shared_ptr<const Topology> require_topology(
    std::shared_ptr<const Topology> t) {
  if (!t) throw std::invalid_argument("ShardedDiagnoser: null topology");
  return t;
}

}  // namespace

ShardedDiagnoser::ShardedDiagnoser(std::shared_ptr<const Topology> topology,
                                   CertifiedPartition partition,
                                   ShardedOptions options)
    : topology_(require_topology(std::move(topology))),
      view_(topology_),
      options_(options),
      delta_(partition.delta),
      partition_(std::move(partition)),
      plan_(ShardPlan::make(*topology_, options.shards,
                            partition_.plan.get())),
      pool_(std::make_unique<ThreadPool>(options.threads)) {
  check_options();
  const std::size_t n = view_.num_nodes();
  in_set_.resize(n);
  is_contributor_.resize(n);
  frontier_words_[0].assign((n + 63) / 64, 0u);
  frontier_words_[1].assign((n + 63) / 64, 0u);
  parent_pos_of_.assign(n, 0u);
  scan_shard_of_.assign(n, 0u);
  const unsigned shards = plan_.num_shards();
  shard_edges_.resize(shards);
  shard_consults_.assign(shards, 0);
  merge_cursor_.assign(shards, 0);
  shard_faults_.resize(shards);
}

void ShardedDiagnoser::check_options() const {
  if (!partition_.plan) {
    throw std::invalid_argument(
        "ShardedDiagnoser: certified partition has no plan");
  }
  const DiagnoserOptions& d = options_.diagnoser;
  if (d.rule != partition_.rule) {
    throw std::invalid_argument(
        "ShardedDiagnoser: options.rule (" + to_string(d.rule) +
        ") does not match the partition's calibration rule (" +
        to_string(partition_.rule) + ")");
  }
  if (d.delta != 0 && d.delta != partition_.delta) {
    throw std::invalid_argument(
        "ShardedDiagnoser: options.delta (" + std::to_string(d.delta) +
        ") conflicts with the adopted partition's certified bound (" +
        std::to_string(partition_.delta) + "); pass 0 to adopt the bound");
  }
  if (d.rule == ParentRule::kLeastFirst ||
      d.final_rule == ParentRule::kLeastFirst) {
    // kLeastFirst admits members during the scan, so every consult depends
    // on the admissions of all lower-numbered frontier nodes — an
    // order-serial chain no parallel scan can replay bit-identically.
    throw std::invalid_argument(
        "ShardedDiagnoser: kLeastFirst admits members mid-scan and cannot "
        "be sharded bit-identically; use a deferred rule (kSpread, "
        "kLeastSync or kHashSpread) for both rule and final_rule");
  }
}

DiagnosisResult ShardedDiagnoser::diagnose(const Syndrome& syndrome) {
  std::vector<ShardRowStore> stores;
  stores.reserve(plan_.num_shards());
  for (unsigned s = 0; s < plan_.num_shards(); ++s) {
    stores.emplace_back(plan_, s, view_, syndrome);
  }
  return diagnose_on(stores);
}

DiagnosisResult ShardedDiagnoser::diagnose(const FaultSet& faults,
                                           FaultyBehavior behavior,
                                           std::uint64_t seed) {
  std::vector<ShardRowStore> stores;
  stores.reserve(plan_.num_shards());
  for (unsigned s = 0; s < plan_.num_shards(); ++s) {
    stores.emplace_back(plan_, s, view_, faults, behavior, seed);
  }
  return diagnose_on(stores);
}

// The monolithic Diagnoser::diagnose_on, with SetBuilder runs replaced
// by run_sharded and the boundary scan fanned over owner ranges. Phase
// structure, failure strings and accounting are replicated verbatim — the
// bit-identity contract depends on it.
DiagnosisResult ShardedDiagnoser::diagnose_on(
    std::vector<ShardRowStore>& stores) {
  lookups_ = 0;
  const Timer solve_timer;
  DiagnosisResult out;
  const PartitionPlan& plan = *partition_.plan;

  // Phase 1: probe seeds until a restricted run certifies.
  const std::size_t max_probes =
      std::min<std::size_t>(plan.num_components(), std::size_t{delta_} + 1);
  std::uint32_t certified = 0;
  bool found = false;
  for (std::size_t c = 0; c < max_probes; ++c) {
    ++out.probes;
    const RunOutcome probe =
        run_sharded(stores, plan.seed_of(c), options_.diagnoser.rule, &plan,
                    static_cast<std::uint32_t>(c));
    if (probe.all_healthy) {
      certified = static_cast<std::uint32_t>(c);
      found = true;
      break;
    }
  }
  if (!found) {
    out.lookups = lookups_;
    out.failure_reason =
        "no component certified within delta+1 probes; the fault count "
        "likely exceeds the bound delta = " +
        std::to_string(delta_);
    out.diagnose_seconds = solve_timer.seconds();
    fill_stats(stores);
    return out;
  }
  out.certified_component = certified;

  // Phase 2: unrestricted run from the certified seed.
  const RunOutcome full =
      run_sharded(stores, plan.seed_of(certified), options_.diagnoser.final_rule,
                  nullptr, 0);
  out.final_members = full.member_count;
  out.final_rounds = full.rounds;

  // Phase 3: N(U_r) by complement scan, one owner range per shard.
  // Contiguous ranges concatenated in shard order are ascending node
  // order, so the result needs no sort — same output as the monolith's
  // single ascending scan.
  const unsigned shards = plan_.num_shards();
  pool_->parallel_for(shards, [&](unsigned, std::size_t s_idx) {
    const unsigned s = static_cast<unsigned>(s_idx);
    auto& faults = shard_faults_[s];
    faults.clear();
    const ShardRange owned = plan_.owned(s);
    for (Node v = owned.lo; v < owned.hi; ++v) {
      if (in_set_.contains(v)) continue;
      for (const Node w : view_.neighbors(v)) {
        if (in_set_.contains(w)) {
          faults.push_back(v);
          break;
        }
      }
    }
  });
  for (unsigned s = 0; s < shards; ++s) {
    out.faults.insert(out.faults.end(), shard_faults_[s].begin(),
                      shard_faults_[s].end());
  }
  out.lookups = lookups_;
  out.diagnose_seconds = solve_timer.seconds();
  fill_stats(stores);

  if (out.faults.size() > delta_) {
    out.failure_reason = "boundary larger than delta (" +
                         std::to_string(out.faults.size()) + " > " +
                         std::to_string(delta_) +
                         "); the fault count exceeds the bound";
    out.faults.clear();
    return out;
  }
  out.success = true;
  return out;
}

template <class Fn>
void ShardedDiagnoser::for_each_parent_group(Fn&& fn) {
  // K-way merge of the shard offer lists at parent-group granularity.
  // Every list is ascending in parent and one parent's offers live in
  // exactly one list (one shard scanned it), so repeatedly taking the
  // group with the least parent walks the monolith's zero_edges_ order.
  const unsigned shards = plan_.num_shards();
  std::fill(merge_cursor_.begin(), merge_cursor_.end(), std::size_t{0});
  for (;;) {
    unsigned best = shards;
    Node best_parent = 0;
    for (unsigned s = 0; s < shards; ++s) {
      if (merge_cursor_[s] >= shard_edges_[s].size()) continue;
      const Node parent = shard_edges_[s][merge_cursor_[s]].parent;
      if (best == shards || parent < best_parent) {
        best = s;
        best_parent = parent;
      }
    }
    if (best == shards) return;
    const auto& edges = shard_edges_[best];
    std::size_t i = merge_cursor_[best];
    std::size_t j = i;
    while (j < edges.size() && edges[j].parent == best_parent) ++j;
    fn(edges.data() + i, edges.data() + j);
    merge_cursor_[best] = j;
  }
}

// SetBuilder::run_impl over sharded row stores: sequential round 1 and
// joins, parallel per-shard scans. Every admission decision, certificate
// check and consult replicates the monolith's order.
ShardedDiagnoser::RunOutcome ShardedDiagnoser::run_sharded(
    std::vector<ShardRowStore>& stores, Node u0, ParentRule rule,
    const PartitionPlan* plan, std::uint32_t comp) {
  const ImplicitGraph& g = view_;
  if (u0 >= g.num_nodes()) throw std::invalid_argument("Set_Builder: bad seed");
  if (plan != nullptr && plan->component_of(u0) != comp) {
    throw std::invalid_argument("Set_Builder: seed outside its component");
  }
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
  if (!frontier_clean_) {
    std::fill(frontier_words_[0].begin(), frontier_words_[0].end(), 0u);
    std::fill(frontier_words_[1].begin(), frontier_words_[1].end(), 0u);
  }
  frontier_clean_ = false;

  RunOutcome result;
  result.member_count = 1;
  in_set_.insert(u0);

  unsigned fi = 0;
  std::size_t next_count = 0;
  const unsigned shards = plan_.num_shards();

  auto add_member = [&](Node v, std::uint32_t parent_pos,
                        unsigned scan_shard) {
    parent_pos_of_[v] = parent_pos;
    scan_shard_of_[v] = static_cast<std::uint8_t>(scan_shard);
    frontier_words_[fi][v >> 6] |= std::uint64_t{1} << (v & 63);
    ++next_count;
    ++result.member_count;
  };

  std::uint64_t consults = 0;

  // ---- Round 1: U_1 from u0's pair tests (sequential; the seed's rows
  // live in owner(u0)'s store by definition). --------------------------------
  {
    const unsigned s0 = plan_.owner_of(u0);
    const ShardRowStore& store = stores[s0];
    const auto adj = g.neighbors(u0);
    const auto mirror = g.mirror_positions(u0);
    round1_pos_.clear();
    for (unsigned p = 0; p < adj.size(); ++p) {
      if (eligible(adj[p])) round1_pos_.push_back(p);
    }
    for (std::size_t a = 0; a < round1_pos_.size(); ++a) {
      const unsigned pa = round1_pos_[a];
      std::uint64_t row = 0;
      bool have_row = false;
      for (std::size_t b = a + 1; b < round1_pos_.size(); ++b) {
        const unsigned pb = round1_pos_[b];
        const Node va = adj[pa];
        const Node vb = adj[pb];
        if (in_set_.contains(va) && in_set_.contains(vb)) continue;
        if (!have_row) {
          row = store.row_bits(u0, pa);
          have_row = true;
        }
        ++consults;
        const bool one = (row >> pb) & 1;
        if (!one) {
          if (in_set_.insert(va)) add_member(va, mirror[pa], s0);
          if (in_set_.insert(vb)) add_member(vb, mirror[pb], s0);
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
    const unsigned ci = fi;  // the frontier being consumed this round
    fi ^= 1;
    next_count = 0;
    const std::uint64_t* const cur = frontier_words_[ci].data();
    const std::size_t cur_words = frontier_words_[ci].size();

    // Scan phase (parallel): membership, parent positions and scan-shard
    // assignments are frozen — each shard reads them and its own row
    // store only, collecting offers in (parent asc, position asc) order.
    pool_->parallel_for(shards, [&](unsigned, std::size_t s_idx) {
      const unsigned s = static_cast<unsigned>(s_idx);
      auto& edges = shard_edges_[s];
      edges.clear();
      std::uint64_t local_consults = 0;
      const ShardRowStore& store = stores[s];
      for (std::size_t w = 0; w < cur_words; ++w) {
        std::uint64_t bits = cur[w];
        while (bits != 0) {
          const Node u =
              static_cast<Node>((w << 6) + std::countr_zero(bits));
          bits &= bits - 1;
          if (scan_shard_of_[u] != s) continue;
          const unsigned parent_pos = parent_pos_of_[u];
          const auto adj = g.neighbors(u);
          const auto mirror = g.mirror_positions(u);
          std::uint64_t row = 0;
          bool have_row = false;
          for (unsigned p = 0; p < adj.size(); ++p) {
            const Node v = adj[p];
            if (p == parent_pos || in_set_.contains(v) || !eligible(v)) {
              continue;
            }
            if (!have_row) {
              row = store.row_bits(u, parent_pos);
              have_row = true;
            }
            ++local_consults;
            const bool one = (row >> p) & 1;
            if (!one) edges.push_back(ZeroEdge{u, v, mirror[p]});
          }
        }
      }
      shard_consults_[s] = local_consults;
    });
    for (unsigned s = 0; s < shards; ++s) consults += shard_consults_[s];
    // The monolith consumes the bitmap word-by-word; the parallel scans
    // read it S times instead, so zero it in one sequential sweep.
    std::fill(frontier_words_[ci].begin(), frontier_words_[ci].end(), 0u);

    // Join phase (sequential): replay the monolith's deferred admissions
    // over the merged offer order.
    if (rule == ParentRule::kSpread) {
      // Pass A: one child per distinct parent, parents ascending. The
      // monolith keeps scanning a claimed parent's remaining offers
      // without effect; stopping at the claim is the same admissions.
      for_each_parent_group([&](const ZeroEdge* begin, const ZeroEdge* end) {
        for (const ZeroEdge* e = begin; e != end; ++e) {
          if (in_set_.insert(e->child)) {
            add_member(e->child, e->child_parent_pos,
                       plan_.owner_of(e->parent));
            if (is_contributor_.insert(e->parent)) ++result.contributors;
            break;
          }
        }
      });
      // Pass B: remaining offers to the first admitting parent in order.
      for_each_parent_group([&](const ZeroEdge* begin, const ZeroEdge* end) {
        for (const ZeroEdge* e = begin; e != end; ++e) {
          if (in_set_.insert(e->child)) {
            add_member(e->child, e->child_parent_pos,
                       plan_.owner_of(e->parent));
            if (is_contributor_.insert(e->parent)) ++result.contributors;
          }
        }
      });
    } else if (rule == ParentRule::kHashSpread) {
      // The monolith sorts its whole offer buffer by (child, hash,
      // parent); that comparator is a total order over the (unique)
      // offers, so sorting the concatenation gives the identical
      // sequence regardless of shard interleaving.
      merged_edges_.clear();
      for (unsigned s = 0; s < shards; ++s) {
        merged_edges_.insert(merged_edges_.end(), shard_edges_[s].begin(),
                             shard_edges_[s].end());
      }
      std::sort(merged_edges_.begin(), merged_edges_.end(),
                [](const ZeroEdge& a, const ZeroEdge& b) {
                  if (a.child != b.child) return a.child < b.child;
                  const auto ha = mix64(a.parent, a.child);
                  const auto hb = mix64(b.parent, b.child);
                  if (ha != hb) return ha < hb;
                  return a.parent < b.parent;
                });
      for (const ZeroEdge& e : merged_edges_) {
        if (in_set_.insert(e.child)) {
          add_member(e.child, e.child_parent_pos, plan_.owner_of(e.parent));
          if (is_contributor_.insert(e.parent)) ++result.contributors;
        }
      }
    } else {  // kLeastSync: first admitting parent in offer order.
      for_each_parent_group([&](const ZeroEdge* begin, const ZeroEdge* end) {
        for (const ZeroEdge* e = begin; e != end; ++e) {
          if (in_set_.insert(e->child)) {
            add_member(e->child, e->child_parent_pos,
                       plan_.owner_of(e->parent));
            if (is_contributor_.insert(e->parent)) ++result.contributors;
          }
        }
      });
    }

    if (next_count > 0) ++result.rounds;
  }

  if (result.contributors > delta_) result.all_healthy = true;
  lookups_ += consults;
  frontier_clean_ = true;
  return result;
}

void ShardedDiagnoser::fill_stats(const std::vector<ShardRowStore>& stores) {
  stats_ = ShardedRunStats{};
  stats_.shards = plan_.num_shards();
  stats_.closed_form_halo = plan_.closed_form_halo();
  for (const ShardRowStore& store : stores) {
    const std::uint64_t bytes = store.memory_bytes();
    stats_.halo_blocks_exchanged += store.halo_blocks_exchanged();
    stats_.total_store_bytes += bytes;
    stats_.max_store_bytes = std::max(stats_.max_store_bytes, bytes);
  }
}

}  // namespace mmdiag
