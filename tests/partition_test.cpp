// Partition plans: components must partition V, contain their seeds, and
// induce connected subgraphs of the stated size.
#include <gtest/gtest.h>

#include <map>

#include "graph/traversal.hpp"
#include "test_util.hpp"

namespace mmdiag {
namespace {

class PartitionCoverage : public ::testing::TestWithParam<std::string> {};

TEST_P(PartitionCoverage, PlansPartitionTheNodeSet) {
  test::Instance inst(GetParam());
  const auto plans = inst.topo->partition_plans();
  ASSERT_FALSE(plans.empty()) << GetParam();
  for (const auto& plan : plans) {
    SCOPED_TRACE(plan->description());
    std::map<std::uint32_t, std::vector<Node>> members;
    for (Node v = 0; v < inst.graph.num_nodes(); ++v) {
      const auto c = plan->component_of(v);
      ASSERT_LT(c, plan->num_components());
      members[c].push_back(v);
    }
    // Every component nonempty, of the advertised uniform size.
    EXPECT_EQ(members.size(), plan->num_components());
    for (const auto& [c, nodes] : members) {
      EXPECT_EQ(nodes.size(), plan->component_size());
      // Seed lies in its component.
      EXPECT_EQ(plan->component_of(plan->seed_of(c)), c);
    }
  }
}

TEST_P(PartitionCoverage, FinestPlanComponentsAreConnected) {
  test::Instance inst(GetParam());
  const auto plans = inst.topo->partition_plans();
  ASSERT_FALSE(plans.empty());
  // Check connectivity of the *coarsest* plan (largest components) — the
  // one the certified search falls back to; finer plans are checked by the
  // calibration tests.
  const auto& plan = plans.back();
  std::map<std::uint32_t, std::vector<Node>> members;
  for (Node v = 0; v < inst.graph.num_nodes(); ++v) {
    members[plan->component_of(v)].push_back(v);
  }
  for (const auto& [c, nodes] : members) {
    EXPECT_TRUE(induced_subgraph_connected(inst.graph, nodes))
        << plan->description() << " component " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, PartitionCoverage,
                         ::testing::Values("hypercube 6", "crossed_cube 6",
                                           "twisted_cube 5",
                                           "folded_hypercube 5",
                                           "enhanced_hypercube 6 3",
                                           "augmented_cube 5", "shuffle_cube 6",
                                           "twisted_n_cube 6", "kary_ncube 3 3",
                                           "augmented_kary_ncube 2 5", "star 5",
                                           "nk_star 6 3", "pancake 5",
                                           "arrangement 5 3"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == ' ') c = '_';
                           }
                           return name;
                         });

TEST(PrefixBitsPlan, ComponentArithmetic) {
  const PrefixBitsPlan plan(6, 4);  // fix top 2 bits
  EXPECT_EQ(plan.num_components(), 4u);
  EXPECT_EQ(plan.component_size(), 16u);
  EXPECT_EQ(plan.component_of(0x3F), 3u);
  EXPECT_EQ(plan.seed_of(2), 0x20u);
  EXPECT_THROW((void)PrefixBitsPlan(4, 0), std::invalid_argument);
  EXPECT_THROW((void)PrefixBitsPlan(4, 5), std::invalid_argument);
}

TEST(TuplePrefixPlan, ComponentArithmetic) {
  const TuplePrefixPlan plan(3, 5, 2);  // fix top coordinate of Z_5^3
  EXPECT_EQ(plan.num_components(), 5u);
  EXPECT_EQ(plan.component_size(), 25u);
  EXPECT_EQ(plan.component_of(101), 4u);
  EXPECT_EQ(plan.seed_of(3), 75u);
}

TEST(FixLastSymbolPlan, SeedsAndComponents) {
  const FixLastSymbolPlan plan(5, 3);  // S(5,3)-style arrangements
  EXPECT_EQ(plan.num_components(), 5u);
  EXPECT_EQ(plan.component_size(), 60u / 5);
  const PermCodec codec(5, 3);
  for (std::size_t c = 0; c < 5; ++c) {
    std::uint8_t a[8];
    codec.unrank(plan.seed_of(c), a);
    EXPECT_EQ(a[2], c + 1);  // last position fixed to symbol c+1
    EXPECT_EQ(plan.component_of(plan.seed_of(c)), c);
  }
}

// The per-rank component table must agree with the codec it replaced on
// every rank, for full permutations (k == n) and for arrangements (k < n).
TEST(FixLastSymbolPlan, ComponentOfEqualsUnrankOnEveryRank) {
  struct Shape {
    unsigned n;
    unsigned k;
  };
  for (const Shape shape : {Shape{4, 4}, Shape{5, 5}, Shape{6, 6},
                            Shape{7, 7}, Shape{8, 8}, Shape{5, 3},
                            Shape{6, 2}, Shape{8, 3}, Shape{10, 4}}) {
    SCOPED_TRACE("n=" + std::to_string(shape.n) +
                 " k=" + std::to_string(shape.k));
    const FixLastSymbolPlan plan(shape.n, shape.k);
    const PermCodec codec(shape.n, shape.k);
    std::size_t mismatches = 0;
    std::uint8_t a[64];
    for (std::uint64_t r = 0; r < codec.count(); ++r) {
      codec.unrank(r, a);
      if (plan.component_of(static_cast<Node>(r)) !=
          static_cast<std::uint32_t>(a[shape.k - 1] - 1)) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << codec.count() << " ranks";
    for (std::uint32_t c = 0; c < plan.num_components(); ++c) {
      EXPECT_EQ(plan.component_of(plan.seed_of(c)), c);
    }
  }
}

}  // namespace
}  // namespace mmdiag
