// The DiagnosisModel axis below the solvers: enum name tables, directed
// (PMC/BGM) test semantics — asymmetric outcomes, self-test exclusion,
// intermittent faults at degree 1 and degree 64 — plus the model
// provenance lines of the .repro and syndrome file formats.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/fuzz_case.hpp"
#include "graph/builder.hpp"
#include "io/syndrome_io.hpp"
#include "mm/behavior.hpp"
#include "mm/directed_oracle.hpp"
#include "mm/directed_syndrome.hpp"
#include "mm/fault_set.hpp"
#include "mm/syndrome.hpp"
#include "topology/registry.hpp"
#include "util/enum_names.hpp"

namespace mmdiag {
namespace {

// --------------------------------------------------------------------------
// Enum name tables (the one-header satellite: every consumer shares these).
// --------------------------------------------------------------------------

TEST(ModelNames, RoundTripAndShorthands) {
  for (const DiagnosisModel model : kAllDiagnosisModels) {
    EXPECT_EQ(diagnosis_model_from_string(diagnosis_model_to_string(model)),
              model);
  }
  EXPECT_EQ(diagnosis_model_from_string("mm"), DiagnosisModel::kMMStar);
  EXPECT_EQ(diagnosis_model_from_string("mm_star"), DiagnosisModel::kMMStar);
  EXPECT_THROW(static_cast<void>(diagnosis_model_from_string("pcm")),
               std::invalid_argument);
  EXPECT_FALSE(is_directed_model(DiagnosisModel::kMMStar));
  EXPECT_TRUE(is_directed_model(DiagnosisModel::kPMC));
  EXPECT_TRUE(is_directed_model(DiagnosisModel::kBGM));
}

TEST(ModelNames, GraphModeAndRuleShareTheHeader) {
  EXPECT_EQ(graph_mode_to_string(GraphMode::kCsr), "csr");
  for (const ParentRule rule : kAllParentRules) {
    EXPECT_EQ(parent_rule_from_string(parent_rule_to_string(rule)), rule);
  }
  EXPECT_EQ(parent_rule_from_string("least_first"), ParentRule::kLeastFirst);
}

// --------------------------------------------------------------------------
// Directed test semantics.
// --------------------------------------------------------------------------

TEST(DirectedSemantics, HealthyTesterReportsTheTruth) {
  for (const DiagnosisModel model :
       {DiagnosisModel::kPMC, DiagnosisModel::kBGM}) {
    for (const FaultyBehavior behavior : kAllFaultyBehaviors) {
      EXPECT_FALSE(directed_test_result(model, behavior, 7, 0, 1, false,
                                        false));
      EXPECT_TRUE(directed_test_result(model, behavior, 7, 0, 1, false,
                                       true));
    }
  }
}

TEST(DirectedSemantics, BgmForcesFaultyTestsFaultyToOne) {
  // Asymmetric invalidation: the behaviour is never even consulted, so the
  // all-zero liar still reports 1 — while under PMC it lies freely.
  for (const FaultyBehavior behavior : kAllFaultyBehaviors) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      EXPECT_TRUE(directed_test_result(DiagnosisModel::kBGM, behavior, seed,
                                       2, 3, true, true));
    }
  }
  EXPECT_FALSE(directed_test_result(DiagnosisModel::kPMC,
                                    FaultyBehavior::kAllZero, 7, 2, 3, true,
                                    true));
}

TEST(DirectedSemantics, FaultyTesterBehaviours) {
  // PMC, faulty tester u on a healthy subject v: all-one alarms, all-zero
  // stays silent, anti inverts what a healthy tester would have said.
  EXPECT_TRUE(directed_test_result(DiagnosisModel::kPMC,
                                   FaultyBehavior::kAllOne, 7, 0, 1, true,
                                   false));
  EXPECT_FALSE(directed_test_result(DiagnosisModel::kPMC,
                                    FaultyBehavior::kAllZero, 7, 0, 1, true,
                                    false));
  EXPECT_TRUE(directed_test_result(DiagnosisModel::kPMC,
                                   FaultyBehavior::kAntiDiagnostic, 7, 0, 1,
                                   true, false));
  EXPECT_FALSE(directed_test_result(DiagnosisModel::kPMC,
                                    FaultyBehavior::kAntiDiagnostic, 7, 0, 1,
                                    true, true));
}

TEST(DirectedSemantics, RandomStreamIsOrderedPairAsymmetric) {
  // The intermittent (kRandom) stream hashes the *ordered* pair, so the two
  // arcs of one edge between two faulty nodes are independent draws under
  // PMC; some seed must produce an asymmetric edge (and the draw must be
  // repeatable).
  bool found_asymmetry = false;
  for (std::uint64_t seed = 0; seed < 64 && !found_asymmetry; ++seed) {
    const bool uv = directed_test_result(
        DiagnosisModel::kPMC, FaultyBehavior::kRandom, seed, 0, 1, true, true);
    const bool vu = directed_test_result(
        DiagnosisModel::kPMC, FaultyBehavior::kRandom, seed, 1, 0, true, true);
    EXPECT_EQ(uv, directed_test_result(DiagnosisModel::kPMC,
                                       FaultyBehavior::kRandom, seed, 0, 1,
                                       true, true));
    found_asymmetry = uv != vu;
  }
  EXPECT_TRUE(found_asymmetry);
}

// --------------------------------------------------------------------------
// Syndrome generation: self-test exclusion and the degree-1 / degree-64
// edge cases on a 64-leaf hub.
// --------------------------------------------------------------------------

Graph hub_graph() {
  std::vector<std::pair<Node, Node>> edges;
  for (Node leaf = 1; leaf <= 64; ++leaf) edges.emplace_back(0, leaf);
  return build_graph_from_edges(65, edges);
}

TEST(DirectedSyndromes, SelfTestsHaveNoSlotByConstruction) {
  const Graph g = hub_graph();
  const FaultSet faults(g.num_nodes(), {0});
  const DirectedSyndrome s = generate_directed_syndrome(
      g, faults, DiagnosisModel::kPMC, FaultyBehavior::kAllOne, 1);
  // One bit per directed arc and nothing else: sum of degrees = 2|E| = 128.
  EXPECT_EQ(s.total_tests(), 128u);
  EXPECT_THROW(static_cast<void>(generate_directed_syndrome(
                   g, faults, DiagnosisModel::kMMStar,
                   FaultyBehavior::kAllOne, 1)),
               std::invalid_argument);
}

TEST(DirectedSyndromes, HubAtDegree64AndLeavesAtDegree1) {
  const Graph g = hub_graph();
  ASSERT_EQ(g.degree(0), 64u);
  ASSERT_EQ(g.degree(1), 1u);
  const FaultSet faults(g.num_nodes(), {0, 1, 2});
  for (const DiagnosisModel model :
       {DiagnosisModel::kPMC, DiagnosisModel::kBGM}) {
    for (const FaultyBehavior behavior : kAllFaultyBehaviors) {
      SCOPED_TRACE(diagnosis_model_to_string(model) + "/" +
                   to_string(behavior));
      const DirectedSyndrome s =
          generate_directed_syndrome(g, faults, model, behavior, 9);
      // Healthy leaves (degree 1) test the faulty hub: always 1.
      for (Node leaf = 3; leaf <= 64; ++leaf) {
        EXPECT_TRUE(s.test(leaf, 0));
        EXPECT_EQ(s.row_bits(leaf), 1u);
      }
      // BGM: the faulty leaves test the faulty hub, forced to 1 no matter
      // the behaviour.
      if (model == DiagnosisModel::kBGM) {
        EXPECT_TRUE(s.test(1, 0));
        EXPECT_TRUE(s.test(2, 0));
      }
      // The hub's full 64-wide run packs into one word, agreeing bit by
      // bit with the per-arc reads.
      const std::uint64_t row = s.row_bits(0);
      for (unsigned p = 0; p < 64; ++p) {
        EXPECT_EQ((row >> p) & 1u, s.test(0, p) ? 1u : 0u);
      }
      // Table and lazy oracles present the same syndrome.
      const DirectedTableOracle table(g, s, model);
      const DirectedLazyOracle lazy(g, faults, model, behavior, 9);
      for (Node u = 0; u < g.num_nodes(); ++u) {
        for (unsigned p = 0; p < g.degree(u); ++p) {
          EXPECT_EQ(table.test(u, p), lazy.test(u, p));
        }
      }
    }
  }
}

TEST(DirectedSyndromes, IntermittentDrawsAreRepeatable) {
  const Graph g = hub_graph();
  const FaultSet faults(g.num_nodes(), {0, 5});
  for (const DiagnosisModel model :
       {DiagnosisModel::kPMC, DiagnosisModel::kBGM}) {
    const DirectedSyndrome a = generate_directed_syndrome(
        g, faults, model, FaultyBehavior::kRandom, 42);
    const DirectedSyndrome b = generate_directed_syndrome(
        g, faults, model, FaultyBehavior::kRandom, 42);
    EXPECT_EQ(a.row_bits(0), b.row_bits(0));
    EXPECT_EQ(a.ones(), b.ones());
  }
}

// --------------------------------------------------------------------------
// .repro model provenance line.
// --------------------------------------------------------------------------

TEST(ReproModelLine, RoundTripsEveryModel) {
  for (const DiagnosisModel model : kAllDiagnosisModels) {
    FuzzCase c;
    c.spec = "hypercube 5";
    c.delta = 3;
    c.pattern = InjectionPattern::kClustered;
    c.inject_seed = 11;
    c.behavior = FaultyBehavior::kAntiDiagnostic;
    c.behavior_seed = 13;
    c.rule = ParentRule::kLeastFirst;
    c.model = model;
    c.faults = {3, 17, 21};
    std::stringstream ss;
    write_repro(ss, c);
    const FuzzCase back = read_repro(ss);
    EXPECT_EQ(back.model, model);
    EXPECT_EQ(back.spec, c.spec);
    EXPECT_EQ(back.rule, c.rule);
    EXPECT_EQ(back.faults, c.faults);
  }
}

TEST(ReproModelLine, OptionalOnReadDefaultingToMmStar) {
  // A pre-model v1 repro (with and without the also-optional rule line)
  // must keep replaying as an MM* case.
  const std::string without_model =
      "mmdiag-repro v1\nspec star 4\ndelta 3\npattern uniform\n"
      "inject-seed 1\nbehavior random\nbehavior-seed 2\nrule spread\n"
      "faults 0 7\nend\n";
  std::istringstream a(without_model);
  EXPECT_EQ(read_repro(a).model, DiagnosisModel::kMMStar);

  const std::string without_rule_or_model =
      "mmdiag-repro v1\nspec star 4\ndelta 3\npattern uniform\n"
      "inject-seed 1\nbehavior random\nbehavior-seed 2\nfaults 0 7\nend\n";
  std::istringstream b(without_rule_or_model);
  const FuzzCase back = read_repro(b);
  EXPECT_EQ(back.model, DiagnosisModel::kMMStar);
  EXPECT_EQ(back.rule, ParentRule::kSpread);

  const std::string bad_model =
      "mmdiag-repro v1\nspec star 4\ndelta 3\npattern uniform\n"
      "inject-seed 1\nbehavior random\nbehavior-seed 2\nrule spread\n"
      "model pcm\nfaults 0 7\nend\n";
  std::istringstream c(bad_model);
  EXPECT_THROW(static_cast<void>(read_repro(c)), std::runtime_error);
}

// --------------------------------------------------------------------------
// Syndrome file model header.
// --------------------------------------------------------------------------

TEST(SyndromeFileModel, DirectedRoundTripPerModel) {
  for (const DiagnosisModel model :
       {DiagnosisModel::kPMC, DiagnosisModel::kBGM}) {
    std::stringstream ss;
    // The writer needs a registry spec only for the header; the reader
    // rebuilds adjacency from it, so round-trip through a real spec.
    const Graph q4 = make_topology_from_spec("hypercube 4")->build_graph();
    const DirectedSyndrome qs = generate_directed_syndrome(
        q4, FaultSet(q4.num_nodes(), {1, 6}), model,
        FaultyBehavior::kAntiDiagnostic, 5);
    write_directed_syndrome(ss, "hypercube 4", model, q4, qs);

    std::istringstream peek_stream(ss.str());
    const SyndromeFileHeader header = peek_syndrome_header(peek_stream);
    EXPECT_EQ(header.model, model);
    EXPECT_EQ(header.spec, "hypercube 4");

    const LoadedDirectedSyndrome back = read_directed_syndrome(ss);
    EXPECT_EQ(back.model, model);
    ASSERT_EQ(back.graph.num_nodes(), q4.num_nodes());
    for (Node u = 0; u < q4.num_nodes(); ++u) {
      EXPECT_EQ(back.syndrome.row_bits(u), qs.row_bits(u));
    }
  }
}

TEST(SyndromeFileModel, ReadersRejectTheWrongFamily) {
  const Graph q4 = make_topology_from_spec("hypercube 4")->build_graph();
  const DirectedSyndrome qs = generate_directed_syndrome(
      q4, FaultSet(q4.num_nodes(), {}), DiagnosisModel::kPMC,
      FaultyBehavior::kRandom, 1);
  std::stringstream directed_file;
  write_directed_syndrome(directed_file, "hypercube 4", DiagnosisModel::kPMC,
                          q4, qs);
  EXPECT_THROW(static_cast<void>(read_syndrome(directed_file)),
               std::runtime_error);

  // An MM* file — no model line at all — is rejected by the directed
  // reader and defaults to mm-star under the peeker.
  const std::string mm_header =
      "mmdiag-syndrome v1\ntopology hypercube 4\nnode 0 000000\nend\n";
  std::istringstream peek_stream(mm_header);
  EXPECT_EQ(peek_syndrome_header(peek_stream).model, DiagnosisModel::kMMStar);
  std::istringstream mm_file(mm_header);
  EXPECT_THROW(static_cast<void>(read_directed_syndrome(mm_file)),
               std::runtime_error);

  std::stringstream out;
  EXPECT_THROW(
      write_directed_syndrome(out, "hypercube 4", DiagnosisModel::kMMStar, q4,
                              qs),
      std::invalid_argument);
}

}  // namespace
}  // namespace mmdiag
