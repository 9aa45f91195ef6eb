#include "baselines/reference_driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mmdiag {

SetBuilderResult reference_set_builder(const Graph& g, ParentRule rule,
                                       const SyndromeOracle& oracle, Node u0,
                                       unsigned delta,
                                       const PartitionPlan* plan,
                                       std::uint32_t comp) {
  if (u0 >= g.num_nodes()) throw std::invalid_argument("Set_Builder: bad seed");
  if (plan != nullptr && plan->component_of(u0) != comp) {
    throw std::invalid_argument("Set_Builder: seed outside its component");
  }
  auto eligible = [&](Node v) {
    return plan == nullptr || plan->component_of(v) == comp;
  };

  std::vector<std::uint8_t> in_set(g.num_nodes(), 0);
  std::vector<std::uint8_t> contributor(g.num_nodes(), 0);
  std::vector<Node> parent_of(g.num_nodes(), kNoNode);
  std::vector<Node> frontier;
  std::vector<Node> next_frontier;

  SetBuilderResult result;
  result.members.push_back(u0);
  result.parent.push_back(kNoNode);
  in_set[u0] = 1;

  // Returns true if v was newly admitted.
  auto admit = [&](Node v, Node parent) {
    if (in_set[v] != 0) return false;
    in_set[v] = 1;
    parent_of[v] = parent;
    result.members.push_back(v);
    result.parent.push_back(parent);
    next_frontier.push_back(v);
    return true;
  };
  auto credit = [&](Node u) {
    if (contributor[u] == 0) {
      contributor[u] = 1;
      ++result.contributors;
    }
  };

  // ---- Round 1: U_1 from u0's pair tests. ----------------------------------
  {
    const auto adj = g.neighbors(u0);
    std::vector<unsigned> pos;
    for (unsigned p = 0; p < adj.size(); ++p) {
      if (eligible(adj[p])) pos.push_back(p);
    }
    for (std::size_t a = 0; a < pos.size(); ++a) {
      for (std::size_t b = a + 1; b < pos.size(); ++b) {
        const Node va = adj[pos[a]];
        const Node vb = adj[pos[b]];
        // Once both endpoints are members the test adds no information.
        if (in_set[va] != 0 && in_set[vb] != 0) continue;
        if (!oracle.test(u0, pos[a], pos[b])) {
          admit(va, u0);
          admit(vb, u0);
        }
      }
    }
    if (!next_frontier.empty()) {
      credit(u0);
      result.rounds = 1;
    }
  }

  // ---- Rounds i >= 2. -------------------------------------------------------
  std::vector<std::pair<Node, Node>> zero_edges;  // (parent, child)
  while (!next_frontier.empty()) {
    std::swap(frontier, next_frontier);
    next_frontier.clear();
    // Ascending id order: under kLeastFirst this realises the paper's
    // "least contributing node" parent choice.
    std::sort(frontier.begin(), frontier.end());

    zero_edges.clear();
    for (const Node u : frontier) {
      const int parent_pos = g.neighbor_position(u, parent_of[u]);
      const auto adj = g.neighbors(u);
      bool contributed = false;
      for (unsigned p = 0; p < adj.size(); ++p) {
        const Node v = adj[p];
        if (static_cast<int>(p) == parent_pos || in_set[v] != 0 ||
            !eligible(v)) {
          continue;
        }
        if (oracle.test(u, p, static_cast<unsigned>(parent_pos))) continue;
        if (rule == ParentRule::kLeastFirst) {
          admit(v, u);
          contributed = true;
        } else {
          zero_edges.emplace_back(u, v);  // joins deferred to the round end
        }
      }
      if (contributed) credit(u);
    }

    if (rule == ParentRule::kSpread) {
      // Pass A: one child per distinct parent, parents ascending (the
      // candidates are grouped by parent in that order).
      std::size_t i = 0;
      while (i < zero_edges.size()) {
        const Node u = zero_edges[i].first;
        bool claimed = false;
        for (; i < zero_edges.size() && zero_edges[i].first == u; ++i) {
          if (!claimed && admit(zero_edges[i].second, u)) {
            credit(u);
            claimed = true;
          }
        }
      }
    } else if (rule == ParentRule::kHashSpread) {
      // The first candidate per child carries the parent minimising
      // mix64(parent, child).
      std::sort(zero_edges.begin(), zero_edges.end(),
                [](const std::pair<Node, Node>& a,
                   const std::pair<Node, Node>& b) {
                  if (a.second != b.second) return a.second < b.second;
                  const auto ha = mix64(a.first, a.second);
                  const auto hb = mix64(b.first, b.second);
                  if (ha != hb) return ha < hb;
                  return a.first < b.first;
                });
    }
    // Remaining candidates go to the first admitting parent in edge order.
    for (const auto& [u, v] : zero_edges) {
      if (admit(v, u)) credit(u);
    }

    if (!next_frontier.empty()) ++result.rounds;
  }

  if (result.contributors > delta) result.all_healthy = true;
  return result;
}

DiagnosisResult reference_diagnose(const Graph& g,
                                   const CertifiedPartition& partition,
                                   const DiagnoserOptions& options,
                                   const SyndromeOracle& oracle) {
  oracle.reset_lookups();
  DiagnosisResult out;
  const PartitionPlan& plan = *partition.plan;
  const unsigned delta = partition.delta;

  // Phase 1: probe seeds until a restricted run certifies.
  const std::size_t max_probes =
      std::min<std::size_t>(plan.num_components(), std::size_t{delta} + 1);
  bool found = false;
  for (std::size_t c = 0; c < max_probes && !found; ++c) {
    ++out.probes;
    const auto comp = static_cast<std::uint32_t>(c);
    found = reference_set_builder(g, options.rule, oracle, plan.seed_of(c),
                                  delta, &plan, comp)
                .all_healthy;
    if (found) out.certified_component = comp;
  }
  if (!found) {
    out.lookups = oracle.lookups();
    out.failure_reason =
        "no component certified within delta+1 probes; the fault count "
        "likely exceeds the bound delta = " +
        std::to_string(delta);
    return out;
  }

  // Phase 2: unrestricted run from the certified seed.
  const SetBuilderResult full = reference_set_builder(
      g, options.final_rule, oracle, plan.seed_of(out.certified_component),
      delta);
  out.final_members = full.members.size();
  out.final_rounds = full.rounds;

  // Phase 3: N(U_r) is exactly F (Theorem 1), by member-adjacency walk.
  std::vector<std::uint8_t> member(g.num_nodes(), 0);
  for (const Node u : full.members) member[u] = 1;
  for (const Node u : full.members) {
    for (const Node v : g.neighbors(u)) {
      if (member[v] == 0) out.faults.push_back(v);
    }
  }
  std::sort(out.faults.begin(), out.faults.end());
  out.faults.erase(std::unique(out.faults.begin(), out.faults.end()),
                   out.faults.end());
  out.lookups = oracle.lookups();

  if (out.faults.size() > delta) {
    out.failure_reason = "boundary larger than delta (" +
                         std::to_string(out.faults.size()) + " > " +
                         std::to_string(delta) +
                         "); the fault count exceeds the bound";
    out.faults.clear();
    return out;
  }
  out.success = true;
  return out;
}

}  // namespace mmdiag
