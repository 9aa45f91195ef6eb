// Set_Builder (§4.1) unit and property tests.
#include <gtest/gtest.h>

#include "core/set_builder.hpp"
#include "mm/injector.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace mmdiag {
namespace {

TEST(SetBuilder, FaultFreeRunCoversGraphAndCertifies) {
  test::Instance inst("hypercube 5");
  const FaultFreeOracle oracle(inst.graph);
  SetBuilder builder(inst.graph, ParentRule::kLeastFirst);
  const auto res = builder.run(oracle, 0, 5);
  EXPECT_TRUE(res.all_healthy);
  EXPECT_EQ(res.members.size(), 32u);
  EXPECT_EQ(res.members[0], 0u);
  EXPECT_EQ(res.parent[0], kNoNode);
  for (Node v = 0; v < 32; ++v) EXPECT_TRUE(builder.in_last_set(v));
}

// The closed form behind runtime calibration (certified_partition.hpp):
// under the paper's least-parent
// rule, the fault-free Set_Builder tree on Q_m rooted at 0 has exactly
// 2^{m-1} internal nodes (a weight-w node contributes iff its top set bit
// is not m-1).
TEST(SetBuilder, LeastRuleContributorsOnHypercubeClosedForm) {
  for (unsigned m = 3; m <= 7; ++m) {
    test::Instance inst("hypercube " + std::to_string(m));
    const FaultFreeOracle oracle(inst.graph);
    SetBuilder builder(inst.graph, ParentRule::kLeastFirst);
    const auto res = builder.run(oracle, 0, /*delta=*/1u << m);  // no certify
    EXPECT_EQ(res.contributors, 1u << (m - 1)) << "m=" << m;
    EXPECT_EQ(res.rounds, m) << "m=" << m;  // BFS layers of Q_m
  }
}

TEST(SetBuilder, SpreadRuleBeatsLeastRuleOnQ4) {
  test::Instance inst("hypercube 4");
  const FaultFreeOracle oracle(inst.graph);
  SetBuilder least(inst.graph, ParentRule::kLeastFirst);
  SetBuilder spread(inst.graph, ParentRule::kSpread);
  const auto rl = least.run(oracle, 0, 100);
  const auto rs = spread.run(oracle, 0, 100);
  EXPECT_EQ(rl.contributors, 8u);
  EXPECT_GE(rs.contributors, 9u);  // rescues certification for delta = 8
  EXPECT_EQ(rs.members.size(), rl.members.size());  // same U, different tree
}

TEST(SetBuilder, MembershipIsRuleIndependent) {
  // U_r is the 0-test reachability closure, so all four parent rules grow
  // the same member set (only the trees differ).
  test::Instance inst("crossed_cube 7");
  Rng rng(55);
  const FaultSet faults(128, inject_uniform(128, 7, rng));
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 4);
  std::vector<Node> reference;
  for (const ParentRule rule : kAllParentRules) {
    SetBuilder builder(inst.graph, rule);
    Node seed = 0;
    while (faults.is_faulty(seed)) ++seed;
    auto members = builder.run(oracle, seed, 7).members;
    std::sort(members.begin(), members.end());
    if (reference.empty()) {
      reference = members;
    } else {
      EXPECT_EQ(members, reference) << to_string(rule);
    }
  }
}

TEST(SetBuilder, ParentStructureIsAValidLayeredTree) {
  test::Instance inst("crossed_cube 5");
  const FaultFreeOracle oracle(inst.graph);
  for (const auto rule : {ParentRule::kLeastFirst, ParentRule::kSpread}) {
    SetBuilder builder(inst.graph, rule);
    const auto res = builder.run(oracle, 3, 5);
    ASSERT_EQ(res.members.size(), res.parent.size());
    DirtyBitset seen(inst.graph.num_nodes());
    std::size_t distinct_parents = 0;
    DirtyBitset parents(inst.graph.num_nodes());
    for (std::size_t i = 0; i < res.members.size(); ++i) {
      if (i == 0) {
        EXPECT_EQ(res.parent[0], kNoNode);
      } else {
        // Parent discovered before child, and adjacent to it.
        EXPECT_TRUE(seen.contains(res.parent[i]));
        EXPECT_TRUE(inst.graph.has_edge(res.members[i], res.parent[i]));
        if (parents.insert(res.parent[i])) ++distinct_parents;
      }
      seen.insert(res.members[i]);
    }
    EXPECT_EQ(res.contributors, distinct_parents) << to_string(rule);
  }
}

TEST(SetBuilder, RestrictedRunStaysInComponentAndCoversIt) {
  test::Instance inst("hypercube 6");
  const FaultFreeOracle oracle(inst.graph);
  const PrefixBitsPlan plan(6, 4);  // 4 components of 16 nodes
  SetBuilder builder(inst.graph, ParentRule::kSpread);
  for (std::uint32_t c = 0; c < 4; ++c) {
    const auto res = builder.run_restricted(oracle, plan.seed_of(c), 6, plan, c);
    EXPECT_EQ(res.members.size(), 16u);
    for (const Node v : res.members) EXPECT_EQ(plan.component_of(v), c);
  }
}

TEST(SetBuilder, SeedOutsideComponentThrows) {
  test::Instance inst("hypercube 5");
  const FaultFreeOracle oracle(inst.graph);
  const PrefixBitsPlan plan(5, 3);
  SetBuilder builder(inst.graph);
  EXPECT_THROW((void)builder.run_restricted(oracle, 0, 5, plan, 1),
               std::invalid_argument);
  EXPECT_THROW((void)builder.run(oracle, 9999, 5), std::invalid_argument);
}

// Core soundness induction of §4.1: if u0 is healthy then every member is.
TEST(SetBuilder, HealthySeedYieldsOnlyHealthyMembers) {
  test::Instance inst("hypercube 7");
  Rng rng(123);
  SetBuilder builder(inst.graph, ParentRule::kSpread);
  for (int trial = 0; trial < 20; ++trial) {
    const FaultSet faults(inst.graph.num_nodes(),
                          inject_uniform(inst.graph.num_nodes(), 7, rng));
    for (const auto behavior : kAllFaultyBehaviors) {
      const LazyOracle oracle(inst.graph, faults, behavior, trial);
      // Pick a healthy seed.
      Node seed = 0;
      while (faults.is_faulty(seed)) ++seed;
      const auto res = builder.run(oracle, seed, 7);
      for (const Node v : res.members) {
        EXPECT_FALSE(faults.is_faulty(v))
            << "behavior " << to_string(behavior) << " trial " << trial;
      }
    }
  }
}

// Certificate soundness: whenever all_healthy fires — from ANY seed, even a
// faulty one, under ANY faulty-tester behaviour — the members really are all
// healthy, provided |F| <= delta.
TEST(SetBuilder, CertificateIsSoundFromArbitrarySeeds) {
  test::Instance inst("hypercube 7");
  const unsigned delta = 7;
  Rng rng(321);
  for (const ParentRule rule : kAllParentRules) {
    SetBuilder builder(inst.graph, rule);
    for (int trial = 0; trial < 15; ++trial) {
      const FaultSet faults(inst.graph.num_nodes(),
                            inject_uniform(inst.graph.num_nodes(), delta, rng));
      for (const auto behavior : kAllFaultyBehaviors) {
        const LazyOracle oracle(inst.graph, faults, behavior, trial * 7);
        const Node seed = static_cast<Node>(rng.below(inst.graph.num_nodes()));
        const auto res = builder.run(oracle, seed, delta);
        if (res.all_healthy) {
          for (const Node v : res.members) {
            EXPECT_FALSE(faults.is_faulty(v)) << to_string(behavior);
          }
        }
      }
    }
  }
}

// §4.2: if the run terminates uncertified, the number of growth rounds is
// bounded by the contributor count, hence by delta.
TEST(SetBuilder, UncertifiedRunsHaveFewRounds) {
  test::Instance inst("hypercube 7");
  const unsigned delta = 7;
  Rng rng(99);
  SetBuilder builder(inst.graph, ParentRule::kLeastFirst);
  for (int trial = 0; trial < 30; ++trial) {
    const FaultSet faults(inst.graph.num_nodes(),
                          inject_uniform(inst.graph.num_nodes(), delta, rng));
    const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, trial);
    const Node seed = static_cast<Node>(rng.below(inst.graph.num_nodes()));
    const auto res = builder.run(oracle, seed, delta);
    if (!res.all_healthy) {
      EXPECT_LE(res.rounds, delta);
      EXPECT_LE(res.contributors, delta);
    }
  }
}

// §6 look-up bound: at most Δ(Δ-1)/2 results from the root and Δ-1 from
// every other member.
TEST(SetBuilder, LookupBoundFromSection6) {
  test::Instance inst("hypercube 8");
  Rng rng(7);
  const unsigned delta = 8;
  for (const ParentRule rule : kAllParentRules) {
    SetBuilder builder(inst.graph, rule);
    for (int trial = 0; trial < 10; ++trial) {
      const FaultSet faults(inst.graph.num_nodes(),
                            inject_uniform(inst.graph.num_nodes(), delta, rng));
      const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, trial);
      const auto res = builder.run(oracle, 0, delta);
      const std::uint64_t max_deg = inst.graph.max_degree();
      const std::uint64_t bound =
          max_deg * (max_deg - 1) / 2 + (res.members.size() - 1) * (max_deg - 1);
      EXPECT_LE(oracle.lookups(), bound) << to_string(rule);
    }
  }
}

TEST(SetBuilder, IsolatedHealthySeedProducesSingleton) {
  // Surround a node by faults: no test can admit anyone into U.
  test::Instance inst("hypercube 5");
  const FaultSet faults(32, inject_surround(inst.graph, 0));
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 1);
  SetBuilder builder(inst.graph);
  const auto res = builder.run(oracle, 0, 5);
  EXPECT_EQ(res.members.size(), 1u);
  EXPECT_EQ(res.rounds, 0u);
  EXPECT_FALSE(res.all_healthy);
}

}  // namespace
}  // namespace mmdiag
