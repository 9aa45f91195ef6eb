#include "distributed/protocol.hpp"

#include <algorithm>
#include <limits>

#include "util/rng.hpp"

#include "core/certified_partition.hpp"

namespace mmdiag {
namespace {

constexpr std::uint64_t kNoSeed = std::numeric_limits<std::uint64_t>::max();

enum class Stage : std::uint8_t { kProbe, kCount, kElect, kBuild, kReport };

struct NodeState {
  // Probe-stage tree (restricted to the node's component).
  bool member_a = false;
  bool offers_sent_a = false;
  Node parent_a = kNoNode;
  std::vector<Node> children_a;
  // Counting convergecast.
  std::uint64_t count_sum = 0;
  std::size_t counts_received = 0;
  bool count_sent = false;
  bool certified_seed = false;
  // Election flood.
  std::uint64_t best = kNoSeed;
  // Build-stage tree (unrestricted).
  bool member_b = false;
  bool offers_sent_b = false;
  Node parent_b = kNoNode;
  std::vector<Node> children_b;
  std::vector<std::uint8_t> neighbor_joined;  // by adjacency position
  // Report convergecast.
  std::vector<Node> collected;  // fault ids from own boundary + children
  std::size_t reports_done = 0;
  bool report_sent = false;
};

class DiagnosisProtocol final : public NodeProgram {
 public:
  DiagnosisProtocol(const Graph& graph, const PartitionPlan& plan,
                    unsigned delta, ParentRule join_rule)
      : graph_(&graph),
        plan_(&plan),
        delta_(delta),
        join_rule_(join_rule),
        state_(graph.num_nodes()) {
    for (std::size_t c = 0; c < plan.num_components(); ++c) {
      is_seed_.push_back(plan.seed_of(c));
    }
    std::sort(is_seed_.begin(), is_seed_.end());
  }

  void set_stage(Stage s) noexcept { stage_ = s; }
  void set_winner(Node w) noexcept { winner_ = w; }

  [[nodiscard]] const NodeState& state(Node v) const { return state_[v]; }
  [[nodiscard]] bool is_probe_seed(Node v) const {
    return std::binary_search(is_seed_.begin(), is_seed_.end(), v);
  }

  void on_round(NetContext& ctx, std::span<const Message> inbox) override {
    switch (stage_) {
      case Stage::kProbe:
        round_probe(ctx, inbox);
        break;
      case Stage::kCount:
        round_count(ctx, inbox);
        break;
      case Stage::kElect:
        round_elect(ctx, inbox);
        break;
      case Stage::kBuild:
        round_build(ctx, inbox);
        break;
      case Stage::kReport:
        round_report(ctx, inbox);
        break;
    }
  }

 private:
  // ---- Stage 1: component-restricted tree growth. -------------------------
  void round_probe(NetContext& ctx, std::span<const Message> inbox) {
    NodeState& st = state_[ctx.self()];
    const auto comp = plan_->component_of(ctx.self());
    if (!st.member_a) {
      if (is_probe_seed(ctx.self()) && inbox.empty()) {
        // Seed kick-off: U_1 from the seed's own pair tests.
        st.member_a = true;
        seed_offers(ctx, /*restricted=*/true);
        return;
      }
      const Node best_parent = choose_parent(ctx.self(), inbox);
      if (best_parent == kNoNode) return;
      st.member_a = true;
      st.parent_a = best_parent;
      ctx.send(best_parent, MsgType::kAck);
      ctx.wake_next_round();  // own offers go out next round
      return;
    }
    // Already a member: record children; send own offers exactly once.
    for (const Message& m : inbox) {
      if (m.type == MsgType::kAck) st.children_a.push_back(m.from);
    }
    if (!st.offers_sent_a && st.parent_a != kNoNode) {
      st.offers_sent_a = true;
      member_offers(ctx, st.parent_a, /*restricted=*/true, comp);
    }
  }

  // ---- Stage 2: contributor-count convergecast. ----------------------------
  void round_count(NetContext& ctx, std::span<const Message> inbox) {
    NodeState& st = state_[ctx.self()];
    if (!st.member_a) return;
    for (const Message& m : inbox) {
      if (m.type == MsgType::kCount) {
        st.count_sum += m.payload;
        ++st.counts_received;
      }
    }
    if (st.count_sent || st.counts_received < st.children_a.size()) return;
    const std::uint64_t internal_below =
        st.count_sum + (st.children_a.empty() ? 0 : 1);
    st.count_sent = true;
    if (st.parent_a != kNoNode) {
      ctx.send(st.parent_a, MsgType::kCount, internal_below);
    } else {
      // Seed: the tree is complete; certify if internal nodes exceed delta.
      st.certified_seed = internal_below > delta_;
    }
  }

  // ---- Stage 3: minimum-certified-seed flood. ------------------------------
  void round_elect(NetContext& ctx, std::span<const Message> inbox) {
    NodeState& st = state_[ctx.self()];
    std::uint64_t incoming = st.best;
    if (st.certified_seed) {
      incoming = std::min<std::uint64_t>(incoming, ctx.self());
    }
    for (const Message& m : inbox) {
      if (m.type == MsgType::kElect) incoming = std::min(incoming, m.payload);
    }
    if (incoming < st.best) {
      st.best = incoming;
      for (const Node w : ctx.neighbors()) {
        ctx.send(w, MsgType::kElect, incoming);
      }
    }
  }

  // ---- Stage 4: unrestricted tree growth with JOINED announcements. --------
  void round_build(NetContext& ctx, std::span<const Message> inbox) {
    NodeState& st = state_[ctx.self()];
    if (st.neighbor_joined.empty()) {
      st.neighbor_joined.assign(ctx.neighbors().size(), 0);
    }
    for (const Message& m : inbox) {
      if (m.type == MsgType::kJoined) {
        const int p = graph_->neighbor_position(ctx.self(), m.from);
        st.neighbor_joined[static_cast<unsigned>(p)] = 1;
      } else if (m.type == MsgType::kAck) {
        st.children_b.push_back(m.from);
      }
    }
    if (!st.member_b) {
      if (ctx.self() == winner_ && inbox.empty()) {
        st.member_b = true;
        announce_joined(ctx);
        seed_offers(ctx, /*restricted=*/false);
        return;
      }
      const Node best_parent = choose_parent(ctx.self(), inbox);
      if (best_parent == kNoNode) return;
      st.member_b = true;
      st.parent_b = best_parent;
      ctx.send(best_parent, MsgType::kAck);
      announce_joined(ctx);
      ctx.wake_next_round();
      return;
    }
    if (!st.offers_sent_b && st.parent_b != kNoNode) {
      st.offers_sent_b = true;
      member_offers(ctx, st.parent_b, /*restricted=*/false, 0);
    }
  }

  // ---- Stage 5: fault-report convergecast to the winner. -------------------
  void round_report(NetContext& ctx, std::span<const Message> inbox) {
    NodeState& st = state_[ctx.self()];
    if (!st.member_b) return;
    for (const Message& m : inbox) {
      if (m.type == MsgType::kReport) {
        st.collected.push_back(static_cast<Node>(m.payload));
      } else if (m.type == MsgType::kReportDone) {
        ++st.reports_done;
      }
    }
    if (st.report_sent || st.reports_done < st.children_b.size()) return;
    st.report_sent = true;
    // Own boundary: neighbours that never announced JOINED are outside U_r.
    const auto adj = ctx.neighbors();
    for (unsigned p = 0; p < adj.size(); ++p) {
      if (!st.neighbor_joined[p]) st.collected.push_back(adj[p]);
    }
    std::sort(st.collected.begin(), st.collected.end());
    st.collected.erase(std::unique(st.collected.begin(), st.collected.end()),
                       st.collected.end());
    if (st.parent_b != kNoNode) {
      for (const Node f : st.collected) {
        ctx.send(st.parent_b, MsgType::kReport, f);
      }
      ctx.send(st.parent_b, MsgType::kReportDone);
    }
    // The winner keeps st.collected as the final answer.
  }

  // ---- Helpers. -------------------------------------------------------------

  /// Parent selection among this round's offers: the least sender
  /// (kLeastFirst) or the sender minimising mix64(sender, self)
  /// (kHashSpread) — both computable from local information alone.
  [[nodiscard]] Node choose_parent(Node self,
                                   std::span<const Message> inbox) const {
    Node best = kNoNode;
    std::uint64_t best_key = ~std::uint64_t{0};
    for (const Message& m : inbox) {
      if (m.type != MsgType::kOffer) continue;
      const std::uint64_t key = join_rule_ == ParentRule::kHashSpread
                                    ? mix64(m.from, self)
                                    : m.from;
      if (key < best_key || (key == best_key && m.from < best)) {
        best_key = key;
        best = m.from;
      }
    }
    return best;
  }

  void announce_joined(NetContext& ctx) {
    for (const Node w : ctx.neighbors()) ctx.send(w, MsgType::kJoined);
  }

  /// U_1 offers from a seed: scan the node's own pair tests.
  void seed_offers(NetContext& ctx, bool restricted) {
    const auto adj = ctx.neighbors();
    const auto comp = plan_->component_of(ctx.self());
    std::vector<unsigned> pos;
    for (unsigned p = 0; p < adj.size(); ++p) {
      if (!restricted || plan_->component_of(adj[p]) == comp) pos.push_back(p);
    }
    std::vector<std::uint8_t> marked(adj.size(), 0);
    for (std::size_t a = 0; a < pos.size(); ++a) {
      for (std::size_t b = a + 1; b < pos.size(); ++b) {
        if (marked[pos[a]] && marked[pos[b]]) continue;
        if (!ctx.my_test(pos[a], pos[b])) {
          marked[pos[a]] = 1;
          marked[pos[b]] = 1;
        }
      }
    }
    for (unsigned p = 0; p < adj.size(); ++p) {
      if (marked[p]) ctx.send(adj[p], MsgType::kOffer);
    }
  }

  /// A member's offers: one test per non-parent neighbour against the parent.
  void member_offers(NetContext& ctx, Node parent, bool restricted,
                     std::uint32_t comp) {
    const auto adj = ctx.neighbors();
    const int parent_pos = graph_->neighbor_position(ctx.self(), parent);
    for (unsigned p = 0; p < adj.size(); ++p) {
      if (static_cast<int>(p) == parent_pos) continue;
      if (restricted && plan_->component_of(adj[p]) != comp) continue;
      if (!ctx.my_test(p, static_cast<unsigned>(parent_pos))) {
        ctx.send(adj[p], MsgType::kOffer);
      }
    }
  }

  const Graph* graph_;
  const PartitionPlan* plan_;
  unsigned delta_;
  ParentRule join_rule_;
  Stage stage_ = Stage::kProbe;
  Node winner_ = kNoNode;
  std::vector<Node> is_seed_;
  std::vector<NodeState> state_;
};

}  // namespace

DistributedRunStats run_distributed_diagnosis(const Topology& topology,
                                              const Graph& graph,
                                              const SyndromeOracle& oracle,
                                              unsigned delta) {
  DistributedRunStats stats;
  if (delta == 0) delta = topology.default_fault_bound();
  if (delta == 0) {
    throw DiagnosisUnsupportedError(topology.info().name +
                                    ": pass delta explicitly");
  }
  // The distributed tree equals the sequential kLeastFirst (or kHashSpread)
  // tree, so the partition must certify under the rule the joiners use.
  // Try the simple least-sender rule first, then the hash spread.
  ParentRule rule = ParentRule::kLeastFirst;
  CertifiedPartition partition = [&] {
    try {
      return find_certified_partition(topology, graph, delta,
                                      ParentRule::kLeastFirst, true);
    } catch (const DiagnosisUnsupportedError&) {
      rule = ParentRule::kHashSpread;
      return find_certified_partition(topology, graph, delta,
                                      ParentRule::kHashSpread, true);
    }
  }();
  const PartitionPlan& plan = *partition.plan;

  oracle.reset_lookups();
  DiagnosisProtocol program(graph, plan, delta, rule);
  SyncNetwork net(graph, oracle, program);

  // Stage 1: all components probe concurrently.
  for (std::size_t c = 0; c < plan.num_components(); ++c) {
    net.wake(plan.seed_of(c));
  }
  net.run_to_quiescence();

  // Stage 2: count convergecast (wake every probe member).
  program.set_stage(Stage::kCount);
  for (Node v = 0; v < graph.num_nodes(); ++v) {
    if (program.state(v).member_a) net.wake(v);
  }
  net.run_to_quiescence();

  Node winner = kNoNode;
  for (std::size_t c = 0; c < plan.num_components(); ++c) {
    if (program.state(plan.seed_of(c)).certified_seed) {
      ++stats.certified_components;
      winner = std::min(winner, plan.seed_of(c));
    }
  }
  if (winner == kNoNode) {
    stats.rounds = net.total_rounds();
    stats.messages = net.total_messages();
    stats.lookups = oracle.lookups();
    stats.failure_reason =
        "no component certified; fault count likely exceeds delta";
    return stats;
  }

  // Stage 3: election flood from the certified seeds.
  program.set_stage(Stage::kElect);
  for (std::size_t c = 0; c < plan.num_components(); ++c) {
    if (program.state(plan.seed_of(c)).certified_seed) {
      net.wake(plan.seed_of(c));
    }
  }
  net.run_to_quiescence();
  stats.winner_seed = winner;
  program.set_winner(winner);

  // Stage 4: unrestricted build from the winner.
  program.set_stage(Stage::kBuild);
  net.wake(winner);
  net.run_to_quiescence();

  // Stage 5: fault reports converge on the winner.
  program.set_stage(Stage::kReport);
  for (Node v = 0; v < graph.num_nodes(); ++v) {
    if (program.state(v).member_b) net.wake(v);
  }
  net.run_to_quiescence();

  stats.rounds = net.total_rounds();
  stats.messages = net.total_messages();
  stats.lookups = oracle.lookups();
  stats.faults = program.state(winner).collected;
  if (stats.faults.size() > delta) {
    stats.failure_reason = "boundary larger than delta";
    stats.faults.clear();
    return stats;
  }
  stats.success = true;
  return stats;
}

}  // namespace mmdiag
