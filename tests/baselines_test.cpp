// Baseline diagnosers: brute force (ground truth + empirical diagnosability),
// Chiang-Tan reconstruction, Yang's cycle algorithm — and cross-agreement
// with the paper's driver.
#include <gtest/gtest.h>

#include "baselines/brute_force.hpp"
#include "baselines/chiang_tan.hpp"
#include "baselines/yang_cycle.hpp"
#include "core/diagnoser.hpp"
#include "mm/injector.hpp"
#include "test_util.hpp"
#include "topology/hypercube.hpp"
#include "topology/star_graph.hpp"
#include "util/rng.hpp"

namespace mmdiag {
namespace {

// ---- Brute force --------------------------------------------------------

TEST(BruteForce, EmpiricalDiagnosabilityOfQ4) {
  // Q_4 is 4-diagnosable (Chang et al. [6]): for random fault sets of size
  // <= 4 the consistent candidate is unique and equals the truth.
  test::Instance inst("hypercube 4");
  Rng rng(1);
  for (unsigned count = 0; count <= 4; ++count) {
    for (const auto behavior :
         {FaultyBehavior::kRandom, FaultyBehavior::kAllZero}) {
      const FaultSet faults(16, inject_uniform(16, count, rng));
      const LazyOracle oracle(inst.graph, faults, behavior, count);
      const auto result = brute_force_diagnose(inst.graph, oracle, 4);
      ASSERT_TRUE(result.success) << result.failure_reason;
      EXPECT_EQ(result.faults, faults.nodes());
    }
  }
}

TEST(BruteForce, EmpiricalDiagnosabilityOfStarAndPancake) {
  for (const char* spec : {"star 4", "pancake 4", "nk_star 5 2"}) {
    SCOPED_TRACE(spec);
    test::Instance inst(spec);
    const unsigned delta = inst.topo->info().diagnosability;
    ASSERT_GT(delta, 0u);
    Rng rng(7);
    for (int trial = 0; trial < 4; ++trial) {
      const FaultSet faults(
          inst.graph.num_nodes(),
          inject_uniform(inst.graph.num_nodes(), delta, rng));
      const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom,
                              trial);
      const auto result = brute_force_diagnose(inst.graph, oracle, delta);
      ASSERT_TRUE(result.success) << result.failure_reason;
      EXPECT_EQ(result.faults, faults.nodes());
    }
  }
}

TEST(BruteForce, DetectsAmbiguityBeyondDiagnosability) {
  // The §2 upper-bound argument: with F = N(u) ∪ {u} of size δ+1 allowed,
  // both N(u) and N(u) ∪ {u} are consistent — provided the faulty u mimics
  // what a healthy u would report. All of u's pair subjects are faulty, so
  // a healthy u would answer 1 everywhere: the all-one behaviour is exactly
  // the mimic.
  test::Instance inst("hypercube 4");
  auto faults_vec = inject_surround(inst.graph, 0);
  faults_vec.push_back(0);
  const FaultSet faults(16, faults_vec);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kAllOne, 0);
  const auto sets = brute_force_consistent_sets(inst.graph, oracle, 5);
  EXPECT_GE(sets.size(), 2u);
  const auto result = brute_force_diagnose(inst.graph, oracle, 5);
  EXPECT_FALSE(result.success);
}

// ---- Chiang-Tan ---------------------------------------------------------

TEST(ChiangTan, ExactOnHypercubeAcrossBehaviors) {
  test::Instance inst("hypercube 7");
  const Hypercube topo(7);
  const auto ct = ChiangTanDiagnoser::for_hypercube(topo, inst.graph);
  Rng rng(3);
  for (unsigned count = 0; count <= 7; ++count) {
    for (const auto behavior : kAllFaultyBehaviors) {
      const FaultSet faults(128, inject_uniform(128, count, rng));
      const LazyOracle oracle(inst.graph, faults, behavior, count);
      const auto result = ct.diagnose(oracle);
      ASSERT_TRUE(result.success)
          << count << " " << to_string(behavior) << ": "
          << result.failure_reason;
      EXPECT_EQ(result.faults, faults.nodes());
    }
  }
}

TEST(ChiangTan, ExactOnStarGraph) {
  test::Instance inst("star 5");
  const StarGraph topo(5);
  const auto ct = ChiangTanDiagnoser::for_star_graph(topo, inst.graph);
  Rng rng(4);
  for (unsigned count = 0; count <= 4; ++count) {
    const FaultSet faults(120, inject_uniform(120, count, rng));
    const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, count);
    const auto result = ct.diagnose(oracle);
    ASSERT_TRUE(result.success) << result.failure_reason;
    EXPECT_EQ(result.faults, faults.nodes());
  }
}

TEST(ChiangTan, PerNodeVerdictsMatchTruth) {
  test::Instance inst("hypercube 6");
  const Hypercube topo(6);
  const auto ct = ChiangTanDiagnoser::for_hypercube(topo, inst.graph);
  Rng rng(11);
  const FaultSet faults(64, inject_uniform(64, 6, rng));
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kAntiDiagnostic, 1);
  for (Node x = 0; x < 64; ++x) {
    EXPECT_EQ(ct.diagnose_node(oracle, x), faults.is_faulty(x) ? 1 : 0) << x;
  }
}

TEST(ChiangTan, ReadsFullTableScaleLookups) {
  // §6: Chiang-Tan consumes on the order of the whole syndrome table;
  // our driver consults a small slice of it. Compare on the same syndrome.
  test::Instance inst("hypercube 9");
  const Hypercube topo(9);
  const auto ct = ChiangTanDiagnoser::for_hypercube(topo, inst.graph);
  Diagnoser ours(*inst.topo, inst.graph);
  Rng rng(5);
  const FaultSet faults(512, inject_uniform(512, 9, rng));
  const LazyOracle o1(inst.graph, faults, FaultyBehavior::kRandom, 2);
  const LazyOracle o2(inst.graph, faults, FaultyBehavior::kRandom, 2);
  const auto ct_result = ct.diagnose(o1);
  const auto our_result = ours.diagnose(o2);
  ASSERT_TRUE(ct_result.success);
  ASSERT_TRUE(our_result.success);
  EXPECT_EQ(ct_result.faults, our_result.faults);
  EXPECT_LT(our_result.lookups, ct_result.lookups);
}

// ---- Yang ---------------------------------------------------------------

TEST(Yang, GrayCodeCyclesAreHamiltonianInSubcubes) {
  test::Instance inst("hypercube 7");
  const Hypercube topo(7);
  YangCycleDiagnoser yang(topo, inst.graph);
  EXPECT_EQ(yang.subcube_dim(), 3u);  // minimal m with 2^m > 7
  const Node len = Node{1} << yang.subcube_dim();
  for (std::size_t c = 0; c < yang.num_cycles(); ++c) {
    DirtyBitset seen(inst.graph.num_nodes());
    for (Node t = 0; t < len; ++t) {
      const Node u = yang.cycle_node(c, t);
      const Node v = yang.cycle_node(c, (t + 1) & (len - 1));
      EXPECT_TRUE(inst.graph.has_edge(u, v));  // consecutive Gray codes
      EXPECT_TRUE(seen.insert(u));             // no repeats
    }
  }
}

TEST(Yang, ExactOnHypercubesAcrossBehaviors) {
  for (const unsigned n : {7u, 8u}) {
    test::Instance inst("hypercube " + std::to_string(n));
    const Hypercube topo(n);
    YangCycleDiagnoser yang(topo, inst.graph);
    Rng rng(n);
    for (unsigned count = 0; count <= n; count += 2) {
      for (const auto behavior : kAllFaultyBehaviors) {
        const FaultSet faults(
            inst.graph.num_nodes(),
            inject_uniform(inst.graph.num_nodes(), count, rng));
        const LazyOracle oracle(inst.graph, faults, behavior, count);
        const auto result = yang.diagnose(oracle);
        ASSERT_TRUE(result.success) << result.failure_reason;
        EXPECT_EQ(result.faults, faults.nodes()) << "n=" << n;
      }
    }
  }
}

TEST(Yang, RequiresLargeEnoughDimension) {
  test::Instance inst("hypercube 6");
  const Hypercube topo(6);
  EXPECT_THROW((void)YangCycleDiagnoser(topo, inst.graph), std::invalid_argument);
}

// ---- Three-way agreement -------------------------------------------------

TEST(CrossValidation, AllThreeAlgorithmsAgreeOnQ8) {
  test::Instance inst("hypercube 8");
  const Hypercube topo(8);
  Diagnoser ours(*inst.topo, inst.graph);
  const auto ct = ChiangTanDiagnoser::for_hypercube(topo, inst.graph);
  YangCycleDiagnoser yang(topo, inst.graph);
  Rng rng(88);
  for (int trial = 0; trial < 5; ++trial) {
    const FaultSet faults(256, inject_uniform(256, 8, rng));
    const LazyOracle o1(inst.graph, faults, FaultyBehavior::kRandom, trial);
    const LazyOracle o2(inst.graph, faults, FaultyBehavior::kRandom, trial);
    const LazyOracle o3(inst.graph, faults, FaultyBehavior::kRandom, trial);
    const auto r1 = ours.diagnose(o1);
    const auto r2 = ct.diagnose(o2);
    const auto r3 = yang.diagnose(o3);
    ASSERT_TRUE(r1.success && r2.success && r3.success);
    EXPECT_EQ(r1.faults, faults.nodes());
    EXPECT_EQ(r2.faults, faults.nodes());
    EXPECT_EQ(r3.faults, faults.nodes());
  }
}

}  // namespace
}  // namespace mmdiag
