// MM-model substrate: syndrome generation semantics, oracle equivalence,
// look-up counting, fault sets and faulty behaviours.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "graph/builder.hpp"
#include "mm/directed_oracle.hpp"
#include "mm/directed_syndrome.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace mmdiag {
namespace {

std::vector<Node> three_distinct_nodes(Rng& rng) {
  std::vector<Node> v;
  while (v.size() < 3) {
    const auto candidate = static_cast<Node>(rng.below(16));
    if (std::find(v.begin(), v.end(), candidate) == v.end()) {
      v.push_back(candidate);
    }
  }
  return v;
}

TEST(FaultSet, MembershipAndNormalisation) {
  const FaultSet f(10, {7, 3, 3, 5});
  EXPECT_EQ(f.size(), 3u);
  EXPECT_EQ(f.nodes(), (std::vector<Node>{3, 5, 7}));
  EXPECT_TRUE(f.is_faulty(3));
  EXPECT_FALSE(f.is_faulty(4));
  EXPECT_THROW((void)FaultSet(4, {9}), std::invalid_argument);
}

TEST(Behavior, NamesAndDeterminism) {
  for (const auto b : kAllFaultyBehaviors) {
    EXPECT_FALSE(to_string(b).empty());
  }
  // Random behaviour is a pure function of (seed, u, {v,w}).
  const bool r1 = faulty_test_result(FaultyBehavior::kRandom, 9, 1, 2, 3, false, false);
  const bool r2 = faulty_test_result(FaultyBehavior::kRandom, 9, 1, 3, 2, false, false);
  EXPECT_EQ(r1, r2);  // unordered pair
  EXPECT_FALSE(faulty_test_result(FaultyBehavior::kAllZero, 0, 1, 2, 3, true, true));
  EXPECT_TRUE(faulty_test_result(FaultyBehavior::kAllOne, 0, 1, 2, 3, false, false));
  EXPECT_TRUE(faulty_test_result(FaultyBehavior::kAntiDiagnostic, 0, 1, 2, 3,
                                 false, false));
  EXPECT_FALSE(faulty_test_result(FaultyBehavior::kAntiDiagnostic, 0, 1, 2, 3,
                                  true, false));
}

TEST(Syndrome, HealthyTestersFollowTheModel) {
  test::Instance inst("hypercube 4");
  const FaultSet faults(16, {5, 9});
  const Syndrome s =
      generate_syndrome(inst.graph, faults, FaultyBehavior::kRandom, 1);
  for (Node u = 0; u < 16; ++u) {
    if (faults.is_faulty(u)) continue;
    const auto adj = inst.graph.neighbors(u);
    for (unsigned i = 0; i + 1 < adj.size(); ++i) {
      for (unsigned j = i + 1; j < adj.size(); ++j) {
        const bool expected =
            faults.is_faulty(adj[i]) || faults.is_faulty(adj[j]);
        EXPECT_EQ(s.test(u, i, j), expected) << "u=" << u;
      }
    }
  }
}

TEST(Syndrome, FaultFreeSyndromeIsAllZero) {
  test::Instance inst("star 4");
  const FaultSet none(24, {});
  const Syndrome s =
      generate_syndrome(inst.graph, none, FaultyBehavior::kAllOne, 3);
  EXPECT_EQ(s.ones(), 0u);
}

TEST(Syndrome, TotalTestsFormula) {
  test::Instance inst("hypercube 4");  // 16 nodes, degree 4
  const Syndrome s(inst.graph);
  EXPECT_EQ(s.total_tests(), 16u * (4 * 3 / 2));
}

TEST(Syndrome, PairIndexSymmetricAccess) {
  test::Instance inst("hypercube 3");
  Syndrome s(inst.graph);
  s.set_test(0, 0, 2, true);
  EXPECT_TRUE(s.test(0, 2, 0));
  EXPECT_FALSE(s.test(0, 1, 2));
}

Graph complete_graph(std::size_t n) {
  std::vector<std::pair<Node, Node>> edges;
  for (Node u = 0; u + 1 < n; ++u) {
    for (Node v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return build_graph_from_edges(n, edges);
}

TEST(Syndrome, Degree65StaysConsistentThroughPairAccess) {
  // K_66: d = 65 > 64, so row_bits is off the table (callers gate on
  // max_degree() <= 64 and fall back to per-pair test()); the pair path
  // itself must stay sound at this width.
  const Graph g = complete_graph(66);
  const FaultSet faults(66, {1, 65});
  const Syndrome s =
      generate_syndrome(g, faults, FaultyBehavior::kAllOne, 406);
  const TableOracle table(g, s);
  const LazyOracle lazy(g, faults, FaultyBehavior::kAllOne, 406);
  for (Node u = 0; u < 66; ++u) {
    const auto deg = g.degree(u);
    for (unsigned i = 0; i + 1 < deg; ++i) {
      for (unsigned j = i + 1; j < deg; ++j) {
        ASSERT_EQ(table.test(u, i, j), lazy.test(u, i, j))
            << u << " " << i << " " << j;
        ASSERT_EQ(s.test(u, i, j), s.test(u, j, i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Layout: one addressing path on regular and irregular graphs.
// ---------------------------------------------------------------------------

Graph hub_graph() {  // degree 64 at the hub, 1 at each of 64 leaves
  std::vector<std::pair<Node, Node>> edges;
  for (Node leaf = 1; leaf <= 64; ++leaf) edges.emplace_back(0, leaf);
  return build_graph_from_edges(65, edges);
}

Graph path_graph(std::size_t n) {
  std::vector<std::pair<Node, Node>> edges;
  for (Node u = 0; u + 1 < n; ++u) edges.emplace_back(u, u + 1);
  return build_graph_from_edges(n, edges);
}

// Q8 with every edge inside nodes [176, 192) cut: those 16 nodes drop to
// degree 4, the rest keep 8.
Graph cut_hypercube_graph() {
  const test::Instance q8("hypercube 8");
  const auto cut = [](Node v) { return v >= 176 && v < 192; };
  std::vector<std::pair<Node, Node>> edges;
  for (Node u = 0; u < q8.graph.num_nodes(); ++u) {
    for (const Node v : q8.graph.neighbors(u)) {
      if (u < v && !(cut(u) && cut(v))) edges.emplace_back(u, v);
    }
  }
  return build_graph_from_edges(q8.graph.num_nodes(), edges);
}

struct NamedGraph {
  std::string name;
  Graph graph;
};

std::vector<NamedGraph> layout_graphs() {
  std::vector<NamedGraph> out;
  for (const char* spec : {"hypercube 8", "star 5", "kary_ncube 4 3"}) {
    out.push_back({spec, test::Instance(spec).graph});
  }
  // Word-width boundary: at d = 63 rows end mid-word, at d = 64 they fill
  // a word exactly (the len == 64 extract edge case).
  out.push_back({"K_64", complete_graph(64)});
  out.push_back({"K_65", complete_graph(65)});
  out.push_back({"hub", hub_graph()});
  out.push_back({"path", path_graph(9)});
  out.push_back({"cut Q8", cut_hypercube_graph()});
  return out;
}

// row_bits, row_location/row_bits_at and test() read the same bits, and
// the rows lie back to back in node order, d bits each: the d×d-per-node
// layout is unchanged whichever index addresses it.
void expect_addressing_agrees(const Graph& g, const Syndrome& s) {
  ASSERT_TRUE(s.laid_out_for(g));
  std::uint64_t next_row = 0;
  for (Node u = 0; u < g.num_nodes(); ++u) {
    const unsigned d = g.degree(u);
    for (unsigned i = 0; i < d; ++i) {
      const std::uint64_t row = s.row_bits(u, i);
      const Syndrome::RowLocation loc = s.row_location(u, i);
      ASSERT_EQ(loc.bit_offset, next_row) << "u=" << u << " i=" << i;
      ASSERT_EQ(loc.width, d);
      ASSERT_EQ(s.row_bits_at(loc), row) << "u=" << u << " i=" << i;
      next_row += d;
      for (unsigned j = 0; j < d; ++j) {
        const bool bit = ((row >> j) & 1u) != 0;
        if (j == i) {
          ASSERT_FALSE(bit) << "diagonal set: u=" << u << " i=" << i;
        } else {
          ASSERT_EQ(bit, s.test(u, i, j))
              << "u=" << u << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

void expect_directed_addressing_agrees(const Graph& g,
                                       const DirectedSyndrome& s) {
  ASSERT_TRUE(s.laid_out_for(g));
  for (Node u = 0; u < g.num_nodes(); ++u) {
    const unsigned d = g.degree(u);
    const std::uint64_t row = s.row_bits(u);
    if (d < 64) {
      ASSERT_EQ(row >> d, 0u) << "u=" << u;
    }
    for (unsigned p = 0; p < d; ++p) {
      ASSERT_EQ(((row >> p) & 1u) != 0, s.test(u, p))
          << "u=" << u << " p=" << p;
    }
  }
}

TEST(SyndromeLayout, EveryAddressingPathAgreesOnRegularAndIrregularGraphs) {
  for (const NamedGraph& named : layout_graphs()) {
    SCOPED_TRACE(named.name);
    const Graph& g = named.graph;
    const std::size_t n = g.num_nodes();
    const FaultSet faults(n, {0, static_cast<Node>(n / 2),
                              static_cast<Node>(n - 1)});
    Syndrome source =
        generate_syndrome(g, faults, FaultyBehavior::kRandom, 407);
    std::uint64_t logical = 0;
    for (Node u = 0; u < n; ++u) {
      logical += std::uint64_t{g.degree(u)} * (g.degree(u) - 1) / 2;
    }
    EXPECT_EQ(source.total_tests(), logical);
    expect_addressing_agrees(g, source);

    const Syndrome copy = source;
    const Syndrome moved = std::move(source);
    expect_addressing_agrees(g, copy);
    expect_addressing_agrees(g, moved);
    EXPECT_EQ(copy.ones(), moved.ones());

    DirectedSyndrome directed = generate_directed_syndrome(
        g, faults, DiagnosisModel::kBGM, FaultyBehavior::kRandom, 408);
    EXPECT_EQ(directed.total_tests(), 2 * g.num_edges());
    expect_directed_addressing_agrees(g, directed);
    const DirectedSyndrome directed_copy = directed;
    const DirectedSyndrome directed_moved = std::move(directed);
    expect_directed_addressing_agrees(g, directed_copy);
    expect_directed_addressing_agrees(g, directed_moved);
  }
}

TEST(SyndromeLayout, RegularTablesHoldOnlyTheirBits) {
  // Q10: 1024 nodes of degree 10. A d×d block per node for MM*, a d-bit run
  // per node for PMC/BGM, rounded up to whole words, and nothing per node.
  test::Instance inst("hypercube 10");
  const Syndrome s(inst.graph);
  EXPECT_EQ(s.memory_bytes(), (1024u * 100 + 63) / 64 * 8);
  const DirectedSyndrome directed(inst.graph);
  EXPECT_EQ(directed.memory_bytes(), (1024u * 10 + 63) / 64 * 8);
}

TEST(SyndromeLayout, TableOraclesRefuseATableLaidOutForAnotherGraph) {
  const test::Instance q10("hypercube 10");
  const test::Instance q12("hypercube 12");
  const Graph k64 = complete_graph(64);  // 64 nodes of degree 63
  const test::Instance q6("hypercube 6");  // 64 nodes of degree 6
  const Graph cut_q8 = cut_hypercube_graph();
  const test::Instance q8("hypercube 8");
  const Graph path = path_graph(65);
  const Graph hub = hub_graph();

  const Syndrome s10(q10.graph);
  const Syndrome s6(q6.graph);
  const Syndrome s_cut(cut_q8);
  const Syndrome s_q8(q8.graph);
  const Syndrome s_path(path);
  EXPECT_THROW((void)TableOracle(q12.graph, s10), std::invalid_argument);
  EXPECT_THROW((void)TableOracle(k64, s6), std::invalid_argument);
  EXPECT_THROW((void)TableOracle(q8.graph, s_cut), std::invalid_argument);
  EXPECT_THROW((void)TableOracle(cut_q8, s_q8), std::invalid_argument);
  EXPECT_THROW((void)TableOracle(hub, s_path), std::invalid_argument);

  const DirectedSyndrome d10(q10.graph);
  const DirectedSyndrome d6(q6.graph);
  const DirectedSyndrome d_cut(cut_q8);
  const DirectedSyndrome d_path(path);
  constexpr auto kPMC = DiagnosisModel::kPMC;
  EXPECT_THROW((void)DirectedTableOracle(q12.graph, d10, kPMC),
               std::invalid_argument);
  EXPECT_THROW((void)DirectedTableOracle(k64, d6, kPMC), std::invalid_argument);
  EXPECT_THROW((void)DirectedTableOracle(q8.graph, d_cut, kPMC),
               std::invalid_argument);
  EXPECT_THROW((void)DirectedTableOracle(hub, d_path, kPMC), std::invalid_argument);

  // A table built on one Graph object reads through another of the same
  // layout: the layout is stored by value, not as a pointer to the graph.
  const test::Instance other_q10("hypercube 10");
  EXPECT_NO_THROW((void)TableOracle(other_q10.graph, s10));
  EXPECT_NO_THROW((void)DirectedTableOracle(other_q10.graph, d10, kPMC));
  EXPECT_NO_THROW((void)TableOracle(cut_hypercube_graph(), s_cut));
  EXPECT_NO_THROW((void)DirectedTableOracle(cut_hypercube_graph(), d_cut, kPMC));
}

TEST(Oracles, TableAndLazyAgreeForEveryBehavior) {
  test::Instance inst("crossed_cube 4");
  Rng rng(11);
  const FaultSet faults(16, three_distinct_nodes(rng));
  for (const auto behavior : kAllFaultyBehaviors) {
    SCOPED_TRACE(to_string(behavior));
    const Syndrome s = generate_syndrome(inst.graph, faults, behavior, 77);
    const TableOracle table(inst.graph, s);
    const LazyOracle lazy(inst.graph, faults, behavior, 77);
    for (Node u = 0; u < 16; ++u) {
      const auto deg = inst.graph.degree(u);
      for (unsigned i = 0; i + 1 < deg; ++i) {
        for (unsigned j = i + 1; j < deg; ++j) {
          EXPECT_EQ(table.test(u, i, j), lazy.test(u, i, j))
              << u << " " << i << " " << j;
        }
      }
    }
  }
}

TEST(Oracles, LookupCounting) {
  test::Instance inst("hypercube 3");
  const Syndrome s(inst.graph);
  const TableOracle oracle(inst.graph, s);
  EXPECT_EQ(oracle.lookups(), 0u);
  (void)oracle.test(0, 0, 1);
  (void)oracle.test(0, 0, 2);
  EXPECT_EQ(oracle.lookups(), 2u);
  oracle.reset_lookups();
  EXPECT_EQ(oracle.lookups(), 0u);
}

TEST(Oracles, FaultFreeOracleAlwaysZero) {
  test::Instance inst("hypercube 3");
  const FaultFreeOracle oracle(inst.graph);
  EXPECT_FALSE(oracle.test(0, 0, 1));
  EXPECT_FALSE(oracle.test(5, 1, 2));
  EXPECT_EQ(oracle.lookups(), 2u);
}

}  // namespace
}  // namespace mmdiag
