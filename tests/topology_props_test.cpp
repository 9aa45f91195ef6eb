// Deep structural checks: exact vertex connectivity of small instances
// (validating the published κ values the paper's Theorem 1 relies on, and in
// particular our reconstructed twisted-cube / shuffle-cube / augmented
// k-ary definitions), plus known-adjacency spot checks.
#include <gtest/gtest.h>

#include "graph/connectivity.hpp"
#include "test_util.hpp"
#include "topology/crossed_cube.hpp"

namespace mmdiag {
namespace {

struct KappaCase {
  std::string spec;
  unsigned expected_kappa;
};

class ExactConnectivity : public ::testing::TestWithParam<KappaCase> {};

TEST_P(ExactConnectivity, MatchesPublishedValue) {
  test::Instance inst(GetParam().spec);
  EXPECT_EQ(vertex_connectivity(inst.graph), GetParam().expected_kappa)
      << inst.topo->info().name;
  // The info() field must agree with the computed truth.
  EXPECT_EQ(inst.topo->info().connectivity, GetParam().expected_kappa);
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, ExactConnectivity,
    ::testing::Values(KappaCase{"hypercube 3", 3},              //
                      KappaCase{"hypercube 5", 5},              //
                      KappaCase{"crossed_cube 3", 3},           //
                      KappaCase{"crossed_cube 5", 5},           //
                      KappaCase{"twisted_cube 3", 3},           //
                      KappaCase{"twisted_cube 5", 5},           //
                      KappaCase{"twisted_cube 7", 7},           //
                      KappaCase{"folded_hypercube 4", 5},       //
                      KappaCase{"folded_hypercube 5", 6},       //
                      KappaCase{"enhanced_hypercube 5 3", 6},   //
                      KappaCase{"enhanced_hypercube 6 4", 7},   //
                      KappaCase{"augmented_cube 3", 4},         // known anomaly
                      KappaCase{"augmented_cube 4", 7},         //
                      KappaCase{"augmented_cube 5", 9},         //
                      KappaCase{"shuffle_cube 6", 6},           // substitute mask table
                      KappaCase{"twisted_n_cube 3", 3},         //
                      KappaCase{"twisted_n_cube 5", 5},         //
                      KappaCase{"kary_ncube 2 4", 4},           //
                      KappaCase{"kary_ncube 2 5", 4},           //
                      KappaCase{"kary_ncube 3 3", 6},           //
                      KappaCase{"augmented_kary_ncube 2 4", 6}, //
                      KappaCase{"augmented_kary_ncube 2 5", 6}, //
                      KappaCase{"augmented_kary_ncube 3 3", 10},//
                      KappaCase{"star 4", 3},                   //
                      KappaCase{"star 5", 4},                   //
                      KappaCase{"nk_star 5 2", 4},              //
                      KappaCase{"nk_star 5 3", 4},              //
                      KappaCase{"pancake 4", 3},                //
                      KappaCase{"pancake 5", 4},                //
                      KappaCase{"arrangement 5 2", 6},          //
                      KappaCase{"arrangement 5 3", 6}),
    [](const ::testing::TestParamInfo<KappaCase>& info) {
      std::string name = info.param.spec;
      for (auto& c : name) {
        if (c == ' ') c = '_';
      }
      return name;
    });

TEST(HypercubeAdjacency, ExactNeighbours) {
  test::Instance inst("hypercube 3");
  EXPECT_EQ(test::sorted(inst.topo->neighbors(0)), (std::vector<Node>{1, 2, 4}));
  EXPECT_EQ(test::sorted(inst.topo->neighbors(5)), (std::vector<Node>{1, 4, 7}));
}

TEST(CrossedCubeAdjacency, MatchesDefinitionSmallCases) {
  // CQ_1 = K_2 and CQ_2 = C_4 (a single 4-cycle), per Efe.
  test::Instance cq1("crossed_cube 1");
  EXPECT_EQ(cq1.graph.num_edges(), 1u);
  test::Instance cq2("crossed_cube 2");
  EXPECT_EQ(cq2.graph.num_edges(), 4u);
  for (Node v = 0; v < 4; ++v) EXPECT_EQ(cq2.graph.degree(v), 2u);

  // Dimension-l neighbour map is an involution (adjacency is symmetric at
  // the same dimension).
  const CrossedCube cq5(5);
  for (Node u = 0; u < 32; ++u) {
    for (unsigned l = 0; l < 5; ++l) {
      const Node v = cq5.neighbor_in_dimension(u, l);
      EXPECT_EQ(cq5.neighbor_in_dimension(v, l), u);
    }
  }
}

TEST(CrossedCube, DiffersFromHypercubeAtDimension3AndUp) {
  test::Instance cq("crossed_cube 3");
  test::Instance q("hypercube 3");
  bool differs = false;
  std::vector<Node> a, b;
  for (Node v = 0; v < 8; ++v) {
    cq.topo->neighbors(v, a);
    q.topo->neighbors(v, b);
    if (test::sorted(a) != test::sorted(b)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(TwistedNCube, TwistIsLocalised) {
  test::Instance tq("twisted_n_cube 4");
  test::Instance q("hypercube 4");
  // Exactly the four special nodes 0,1,2,3 have a modified dimension-0 edge.
  for (Node v = 0; v < 16; ++v) {
    const auto tn = test::sorted(tq.topo->neighbors(v));
    const auto qn = test::sorted(q.topo->neighbors(v));
    if (v < 4) {
      EXPECT_NE(tn, qn) << v;
    } else {
      EXPECT_EQ(tn, qn) << v;
    }
  }
  EXPECT_TRUE(tq.graph.has_edge(0, 3));
  EXPECT_TRUE(tq.graph.has_edge(1, 2));
  EXPECT_FALSE(tq.graph.has_edge(0, 1));
  EXPECT_FALSE(tq.graph.has_edge(2, 3));
}

TEST(FoldedHypercube, ComplementEdgesPresent) {
  test::Instance fq("folded_hypercube 4");
  for (Node v = 0; v < 16; ++v) EXPECT_TRUE(fq.graph.has_edge(v, v ^ 0xFu));
}

TEST(EnhancedHypercube, ComplementsLowKBits) {
  test::Instance eq("enhanced_hypercube 5 3");
  for (Node v = 0; v < 32; ++v) EXPECT_TRUE(eq.graph.has_edge(v, v ^ 0x7u));
}

TEST(AugmentedCube, RecursiveSplitGivesAugmentedSubcubes) {
  // Fixing the top bit of AQ_4 must induce two copies of AQ_3.
  test::Instance aq4("augmented_cube 4");
  test::Instance aq3("augmented_cube 3");
  for (Node half = 0; half < 2; ++half) {
    for (Node w = 0; w < 8; ++w) {
      const Node u = (half << 3) | w;
      std::vector<Node> inside;
      for (const Node v : aq4.graph.neighbors(u)) {
        if ((v >> 3) == half) inside.push_back(v & 7u);
      }
      EXPECT_EQ(test::sorted(inside), test::sorted(aq3.topo->neighbors(w)))
          << "half " << half << " node " << w;
    }
  }
}

TEST(ShuffleCube, SixteenWayRecursiveSplit) {
  // Fixing the top four bits of SQ_6 must induce 16 copies of SQ_2 = Q_2.
  test::Instance sq6("shuffle_cube 6");
  for (Node block = 0; block < 16; ++block) {
    for (Node w = 0; w < 4; ++w) {
      const Node u = (block << 2) | w;
      std::vector<Node> inside;
      for (const Node v : sq6.graph.neighbors(u)) {
        if ((v >> 2) == block) inside.push_back(v & 3u);
      }
      EXPECT_EQ(test::sorted(inside),
                test::sorted({w ^ 1u, w ^ 2u}))  // Q_2 adjacency
          << "block " << block << " node " << w;
    }
  }
}

TEST(TwistedCube, FourWayRecursiveSplit) {
  // Fixing the top two bits of TQ_5 must induce four copies of TQ_3.
  test::Instance tq5("twisted_cube 5");
  test::Instance tq3("twisted_cube 3");
  for (Node block = 0; block < 4; ++block) {
    for (Node w = 0; w < 8; ++w) {
      const Node u = (block << 3) | w;
      std::vector<Node> inside;
      for (const Node v : tq5.graph.neighbors(u)) {
        if ((v >> 3) == block) inside.push_back(v & 7u);
      }
      EXPECT_EQ(test::sorted(inside), test::sorted(tq3.topo->neighbors(w)))
          << "block " << block << " node " << w;
    }
  }
}

TEST(KAryNCube, TorusAdjacency) {
  test::Instance q("kary_ncube 2 5");  // 5x5 torus
  // Node (r,c) has id r*5+c... coordinate 0 is the low digit.
  const Node u = 1 * 5 + 2;  // (1,2)
  EXPECT_EQ(test::sorted(q.topo->neighbors(u)),
            test::sorted({Node{1 * 5 + 3}, Node{1 * 5 + 1}, Node{2 * 5 + 2},
                          Node{0 * 5 + 2}}));
}

TEST(StarGraph, S3IsSixCycle) {
  test::Instance s3("star 3");
  EXPECT_EQ(s3.graph.num_nodes(), 6u);
  for (Node v = 0; v < 6; ++v) EXPECT_EQ(s3.graph.degree(v), 2u);
  EXPECT_EQ(vertex_connectivity(s3.graph), 2u);
}

TEST(NKStar, SnMinusOneMatchesStarGraphSize) {
  test::Instance nk("nk_star 5 4");
  test::Instance s("star 5");
  EXPECT_EQ(nk.graph.num_nodes(), s.graph.num_nodes());
  EXPECT_EQ(nk.graph.num_edges(), s.graph.num_edges());
  // S_{n,1} is the complete graph K_n.
  test::Instance k("nk_star 6 1");
  EXPECT_EQ(k.graph.num_edges(), 15u);
  EXPECT_EQ(k.graph.min_degree(), 5u);
}

TEST(Pancake, P3IsSixCycle) {
  test::Instance p3("pancake 3");
  EXPECT_EQ(p3.graph.num_nodes(), 6u);
  for (Node v = 0; v < 6; ++v) EXPECT_EQ(p3.graph.degree(v), 2u);
}

TEST(Arrangement, AnOneIsComplete) {
  test::Instance a("arrangement 5 1");
  EXPECT_EQ(a.graph.num_nodes(), 5u);
  EXPECT_EQ(a.graph.num_edges(), 10u);
}

TEST(Arrangement, DefaultFaultBoundIsNMinus1) {
  test::Instance a("arrangement 6 3");
  EXPECT_EQ(a.topo->info().diagnosability, 9u);
  EXPECT_EQ(a.topo->default_fault_bound(), 5u);  // Theorem 7: n-1
}

}  // namespace
}  // namespace mmdiag
