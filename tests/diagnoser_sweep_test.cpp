// The headline property sweep: for EVERY supported family (Theorems 2-7),
// every faulty-tester behaviour and several fault counts and injection
// patterns, the driver returns exactly the injected fault set.
//
// Instance sizes are the smallest per family whose partitions certify
// (certified_partition_test pins the sizes below which they do not).
#include <gtest/gtest.h>

#include "core/diagnoser.hpp"
#include "mm/injector.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace mmdiag {
namespace {

class DiagnosisSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(DiagnosisSweep, ExactRecoveryAcrossBehaviorsAndFaultCounts) {
  test::Instance inst(GetParam());
  const unsigned delta = inst.topo->default_fault_bound();
  ASSERT_GT(delta, 0u) << GetParam();
  Diagnoser diagnoser(*inst.topo, inst.graph);
  Rng rng(0xC0FFEE);

  const unsigned counts[] = {0, 1, delta / 2, delta};
  for (const unsigned count : counts) {
    for (const auto behavior : kAllFaultyBehaviors) {
      const FaultSet faults(inst.graph.num_nodes(),
                            inject_uniform(inst.graph.num_nodes(), count, rng));
      const LazyOracle oracle(inst.graph, faults, behavior,
                              count * 131 + static_cast<unsigned>(behavior));
      const auto result = diagnoser.diagnose(oracle);
      ASSERT_TRUE(result.success)
          << GetParam() << ": " << count << " faults, " << to_string(behavior)
          << ": " << result.failure_reason;
      EXPECT_EQ(result.faults, faults.nodes())
          << GetParam() << ": " << count << " faults, " << to_string(behavior);
      EXPECT_LE(result.probes, std::size_t{delta} + 1);
    }
  }
}

TEST_P(DiagnosisSweep, SurroundPatternRecovered) {
  test::Instance inst(GetParam());
  const unsigned delta = inst.topo->default_fault_bound();
  if (inst.graph.max_degree() > delta) {
    GTEST_SKIP() << "surround set larger than fault bound";
  }
  Diagnoser diagnoser(*inst.topo, inst.graph);
  const Node centre = static_cast<Node>(inst.graph.num_nodes() / 2);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_surround(inst.graph, centre));
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kAllZero, 5);
  const auto result = diagnoser.diagnose(oracle);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_EQ(result.faults, faults.nodes());
}

TEST_P(DiagnosisSweep, ClusteredFaultsRecovered) {
  test::Instance inst(GetParam());
  const unsigned delta = inst.topo->default_fault_bound();
  Diagnoser diagnoser(*inst.topo, inst.graph);
  const Node centre = static_cast<Node>(inst.graph.num_nodes() / 3);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_clustered(inst.graph, centre, delta));
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kAntiDiagnostic, 7);
  const auto result = diagnoser.diagnose(oracle);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_EQ(result.faults, faults.nodes());
}

INSTANTIATE_TEST_SUITE_P(
    AllSupportedFamilies, DiagnosisSweep,
    ::testing::Values(
        // Theorem 2
        "hypercube 7", "hypercube 8", "hypercube 10",
        // Theorem 3
        "crossed_cube 7", "crossed_cube 9", "twisted_cube 7", "twisted_cube 9",
        "folded_hypercube 8", "enhanced_hypercube 8 6",
        "enhanced_hypercube 9 3", "augmented_cube 11", "shuffle_cube 10",
        "twisted_n_cube 9",
        // Theorem 4
        "kary_ncube 2 7", "kary_ncube 2 8", "kary_ncube 3 9",
        "kary_ncube 4 7", "augmented_kary_ncube 2 9",
        // Theorem 5 (includes stars as S_{n,n-1})
        "nk_star 6 3", "nk_star 7 3", "nk_star 7 5", "star 5", "star 6",
        "star 7",
        // Theorem 6
        "pancake 5", "pancake 6", "pancake 7",
        // Theorem 7
        "arrangement 6 3", "arrangement 7 3", "arrangement 7 4"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (auto& c : name) {
        if (c == ' ') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mmdiag
