// Targeted tests of the Theorem-1 driver on hypercubes.
#include <gtest/gtest.h>

#include "core/diagnoser.hpp"
#include "mm/injector.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace mmdiag {
namespace {

class HypercubeDiagnosis : public ::testing::Test {
 protected:
  HypercubeDiagnosis() : inst_("hypercube 7") {}
  test::Instance inst_;
};

TEST_F(HypercubeDiagnosis, RecoversEveryFaultCountUnderEveryBehavior) {
  Diagnoser diagnoser(*inst_.topo, inst_.graph);
  Rng rng(2024);
  for (unsigned count = 0; count <= 7; ++count) {
    for (const auto behavior : kAllFaultyBehaviors) {
      const FaultSet faults(inst_.graph.num_nodes(),
                            inject_uniform(inst_.graph.num_nodes(), count, rng));
      const LazyOracle oracle(inst_.graph, faults, behavior, count);
      const auto result = diagnoser.diagnose(oracle);
      ASSERT_TRUE(result.success)
          << count << " faults, " << to_string(behavior) << ": "
          << result.failure_reason;
      EXPECT_EQ(result.faults, faults.nodes());
      EXPECT_LE(result.probes, 8u);  // delta + 1
    }
  }
}

TEST_F(HypercubeDiagnosis, TableAndLazyOraclesGiveIdenticalDiagnoses) {
  Diagnoser diagnoser(*inst_.topo, inst_.graph);
  Rng rng(5);
  const FaultSet faults(inst_.graph.num_nodes(),
                        inject_uniform(inst_.graph.num_nodes(), 6, rng));
  const Syndrome syndrome =
      generate_syndrome(inst_.graph, faults, FaultyBehavior::kRandom, 42);
  const TableOracle table(inst_.graph, syndrome);
  const LazyOracle lazy(inst_.graph, faults, FaultyBehavior::kRandom, 42);
  const auto from_table = diagnoser.diagnose(table);
  const auto from_lazy = diagnoser.diagnose(lazy);
  ASSERT_TRUE(from_table.success);
  ASSERT_TRUE(from_lazy.success);
  EXPECT_EQ(from_table.faults, from_lazy.faults);
  EXPECT_EQ(from_table.lookups, from_lazy.lookups);
}

TEST_F(HypercubeDiagnosis, SurroundedNodeIsNotMisdiagnosed) {
  // F = all neighbours of node 0 (|F| = 7 = delta). Node 0 is healthy but
  // unreachable; the unique answer of size <= 7 is N(0) itself.
  Diagnoser diagnoser(*inst_.topo, inst_.graph);
  const auto surround = inject_surround(inst_.graph, 0);
  const FaultSet faults(inst_.graph.num_nodes(), surround);
  for (const auto behavior : kAllFaultyBehaviors) {
    const LazyOracle oracle(inst_.graph, faults, behavior, 9);
    const auto result = diagnoser.diagnose(oracle);
    ASSERT_TRUE(result.success) << to_string(behavior);
    EXPECT_EQ(result.faults, faults.nodes());
    // Node 0 must not appear faulty.
    EXPECT_FALSE(std::binary_search(result.faults.begin(), result.faults.end(),
                                    Node{0}));
  }
}

TEST_F(HypercubeDiagnosis, ClusteredFaultsRecovered) {
  Diagnoser diagnoser(*inst_.topo, inst_.graph);
  const FaultSet faults(inst_.graph.num_nodes(),
                        inject_clustered(inst_.graph, 37, 7));
  const LazyOracle oracle(inst_.graph, faults, FaultyBehavior::kAllZero, 0);
  const auto result = diagnoser.diagnose(oracle);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.faults, faults.nodes());
}

TEST_F(HypercubeDiagnosis, FaultsInsideProbedComponentForceLaterSeed) {
  Diagnoser diagnoser(*inst_.topo, inst_.graph);
  const PartitionPlan& plan = *diagnoser.partition().plan;
  Rng rng(8);
  // Confine all faults to component 0: its probe cannot certify (it has
  // faults and only 16 nodes), so the driver must move on.
  const auto faults_vec = inject_where(
      inst_.graph.num_nodes(), 7,
      [&](Node v) { return plan.component_of(v) == 0; }, rng);
  const FaultSet faults(inst_.graph.num_nodes(), faults_vec);
  const LazyOracle oracle(inst_.graph, faults, FaultyBehavior::kRandom, 3);
  const auto result = diagnoser.diagnose(oracle);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.faults, faults.nodes());
  EXPECT_GE(result.probes, 2u);
}

TEST_F(HypercubeDiagnosis, AccountingFieldsAreCoherent) {
  Diagnoser diagnoser(*inst_.topo, inst_.graph);
  Rng rng(13);
  const FaultSet faults(inst_.graph.num_nodes(),
                        inject_uniform(inst_.graph.num_nodes(), 5, rng));
  const LazyOracle oracle(inst_.graph, faults, FaultyBehavior::kRandom, 1);
  const auto result = diagnoser.diagnose(oracle);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.lookups, oracle.lookups());
  // The healthy graph remained connected here, so U_r = V \ F.
  EXPECT_EQ(result.final_members, inst_.graph.num_nodes() - faults.size());
  EXPECT_GE(result.final_rounds, 1u);
}

TEST_F(HypercubeDiagnosis, PaperParentRuleWorksOnQ7) {
  DiagnoserOptions options;
  options.rule = ParentRule::kLeastFirst;
  Diagnoser diagnoser(*inst_.topo, inst_.graph, options);
  Rng rng(21);
  const FaultSet faults(inst_.graph.num_nodes(),
                        inject_uniform(inst_.graph.num_nodes(), 7, rng));
  const LazyOracle oracle(inst_.graph, faults, FaultyBehavior::kAntiDiagnostic, 2);
  const auto result = diagnoser.diagnose(oracle);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.faults, faults.nodes());
}

TEST_F(HypercubeDiagnosis, SmallerDeltaOverrideIsHonoured) {
  DiagnoserOptions options;
  options.delta = 3;
  Diagnoser diagnoser(*inst_.topo, inst_.graph, options);
  EXPECT_EQ(diagnoser.delta(), 3u);
  Rng rng(17);
  const FaultSet faults(inst_.graph.num_nodes(),
                        inject_uniform(inst_.graph.num_nodes(), 3, rng));
  const LazyOracle oracle(inst_.graph, faults, FaultyBehavior::kRandom, 0);
  const auto result = diagnoser.diagnose(oracle);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.faults, faults.nodes());
  EXPECT_LE(result.probes, 4u);
}

TEST(DiagnoserAdoption, MismatchedParentRuleIsRejected) {
  // The partition records the rule it was calibrated under; adopting it
  // with a different probe rule used to be silent misuse (the probes could
  // fail to replay the calibration) and must now throw.
  test::Instance inst("hypercube 7");
  Diagnoser calibrated(*inst.topo, inst.graph);  // rule = kSpread
  EXPECT_EQ(calibrated.partition().rule, ParentRule::kSpread);
  DiagnoserOptions mismatched;
  mismatched.rule = ParentRule::kLeastFirst;
  EXPECT_THROW(Diagnoser(inst.graph, calibrated.partition(), mismatched),
               std::invalid_argument);
  // The matching rule still adopts fine.
  EXPECT_NO_THROW(Diagnoser(inst.graph, calibrated.partition(), {}));
}

TEST(DiagnoserAdoption, ConflictingDeltaIsRejected) {
  test::Instance inst("hypercube 7");
  Diagnoser calibrated(*inst.topo, inst.graph);  // delta = 7
  DiagnoserOptions conflicting;
  conflicting.delta = 5;
  EXPECT_THROW(Diagnoser(inst.graph, calibrated.partition(), conflicting),
               std::invalid_argument);
  // delta == 0 means "adopt the partition's bound", delta == bound agrees.
  DiagnoserOptions agreeing;
  agreeing.delta = 7;
  EXPECT_NO_THROW(Diagnoser(inst.graph, calibrated.partition(), agreeing));
}

TEST(DiagnoserLookups, Section6BoundHolds) {
  test::Instance inst("hypercube 10");
  Diagnoser diagnoser(*inst.topo, inst.graph);
  Rng rng(31);
  const FaultSet faults(inst.graph.num_nodes(),
                        inject_uniform(inst.graph.num_nodes(), 10, rng));
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 77);
  const auto result = diagnoser.diagnose(oracle);
  ASSERT_TRUE(result.success);
  const std::uint64_t delta_max = inst.graph.max_degree();
  // (Δ-1)(Δ/2 + |U_r| - 1) for the final run, plus the probe phase which is
  // bounded by (δ+1) components of the same shape.
  const std::uint64_t final_bound =
      (delta_max - 1) * (delta_max / 2 + result.final_members - 1) + delta_max;
  const std::uint64_t probe_bound =
      result.probes *
      ((delta_max - 1) *
           (delta_max / 2 + diagnoser.partition().plan->component_size() - 1) +
       delta_max);
  EXPECT_LE(result.lookups, final_bound + probe_bound);
  // And the full syndrome table is much larger.
  const Syndrome table(inst.graph);
  EXPECT_LT(result.lookups, table.total_tests() / 2);
}

}  // namespace
}  // namespace mmdiag
