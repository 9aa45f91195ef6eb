// Bit-identity regression suite: the hot-path driver and the seed
// reference implementation (baselines/reference_driver.hpp) must report
// bit-identical diagnoses — faults, failure strings, rounds, contributors,
// probes AND look-up counts — for every registry family, all four parent
// rules, and all three shipped oracles; so must the bitsliced cohort. Any
// divergence here is a correctness bug in a fast path, not a measurement
// artefact.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/reference_driver.hpp"
#include "core/certified_partition.hpp"
#include "core/diagnoser.hpp"
#include "mm/behavior.hpp"
#include "mm/fault_set.hpp"
#include "mm/injector.hpp"
#include "mm/oracle.hpp"
#include "mm/syndrome.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace mmdiag {
namespace {

/// One certifiable (spec, delta) pair per registry family — the explicit
/// deltas keep small instances inside their §5 validity window.
struct FamilyCase {
  const char* spec;
  unsigned delta;
};
constexpr FamilyCase kEveryFamily[] = {
    {"hypercube 5", 3},          {"crossed_cube 5", 3},
    {"twisted_cube 5", 3},       {"folded_hypercube 5", 3},
    {"enhanced_hypercube 5 2", 3}, {"augmented_cube 6", 3},
    {"shuffle_cube 6", 3},       {"twisted_n_cube 5", 3},
    {"kary_ncube 2 6", 3},       {"augmented_kary_ncube 3 4", 3},
    {"star 4", 3},               {"nk_star 5 3", 4},
    {"pancake 4", 3},            {"arrangement 5 3", 4},
};

void expect_bit_identical(const DiagnosisResult& expected,
                          const DiagnosisResult& actual,
                          const std::string& what) {
  ASSERT_EQ(expected.success, actual.success) << what;
  EXPECT_EQ(expected.faults, actual.faults) << what;
  EXPECT_EQ(expected.failure_reason, actual.failure_reason) << what;
  EXPECT_EQ(expected.lookups, actual.lookups) << what;
  EXPECT_EQ(expected.probes, actual.probes) << what;
  EXPECT_EQ(expected.certified_component, actual.certified_component) << what;
  EXPECT_EQ(expected.final_members, actual.final_members) << what;
  EXPECT_EQ(expected.final_rounds, actual.final_rounds) << what;
}

/// Races the driver against the seed reference on one oracle (the
/// reference is the expected voice) and returns the driver's result.
DiagnosisResult check_against_reference(Diagnoser& diagnoser,
                                        const Graph& graph,
                                        const SyndromeOracle& oracle,
                                        const std::string& what) {
  const DiagnosisResult expected = reference_diagnose(
      graph, diagnoser.partition(), diagnoser.options(), oracle);
  DiagnosisResult actual = diagnoser.diagnose(oracle);
  expect_bit_identical(expected, actual, what);
  return actual;
}

TEST(DispatchEquivalence, EveryFamilyEveryRuleEveryOracle) {
  for (const FamilyCase& family : kEveryFamily) {
    SCOPED_TRACE(family.spec);
    test::Instance inst(family.spec);
    const std::size_t n = inst.graph.num_nodes();
    for (const ParentRule rule : kAllParentRules) {
      CertifiedPartition partition;
      try {
        partition = find_certified_partition(*inst.topo, inst.graph,
                                             family.delta, rule);
      } catch (const DiagnosisUnsupportedError&) {
        continue;  // this rule cannot certify this instance — nothing to race
      }
      DiagnoserOptions options;
      options.rule = rule;
      Diagnoser diagnoser(inst.graph, partition, options);
      const std::string tag =
          std::string(family.spec) + "/" + to_string(rule);

      check_against_reference(diagnoser, inst.graph,
                              FaultFreeOracle(inst.graph),
                              tag + "/fault-free");

      for (const std::size_t num_faults :
           {std::size_t{1}, std::size_t{family.delta}}) {
        for (const FaultyBehavior behavior :
             {FaultyBehavior::kRandom, FaultyBehavior::kAntiDiagnostic}) {
          Rng rng(0xD15BA7C4 ^ (num_faults * 977) ^
                  static_cast<unsigned>(rule));
          const FaultSet faults(n, inject_uniform(n, num_faults, rng));
          const std::string what = tag + "/faults=" +
                                   std::to_string(num_faults) + "/" +
                                   to_string(behavior);
          const DiagnosisResult lazy = check_against_reference(
              diagnoser, inst.graph,
              LazyOracle(inst.graph, faults, behavior, /*seed=*/42),
              what + "/lazy");
          const Syndrome syndrome =
              generate_syndrome(inst.graph, faults, behavior, /*seed=*/42);
          const DiagnosisResult table = check_against_reference(
              diagnoser, inst.graph, TableOracle(inst.graph, syndrome),
              what + "/table");
          // The table materialises exactly what the lazy oracle computes.
          expect_bit_identical(lazy, table, what + "/lazy-vs-table");
        }
      }
    }
  }
}

// SetBuilder-level equivalence with the reference, including restricted
// runs (the probe shape) and the look-up counter after each run.
TEST(DispatchEquivalence, SetBuilderRunsMatchReference) {
  for (const FamilyCase& family : {FamilyCase{"hypercube 6", 4},
                                   FamilyCase{"star 5", 4},
                                   FamilyCase{"kary_ncube 3 4", 4}}) {
    SCOPED_TRACE(family.spec);
    test::Instance inst(family.spec);
    const std::size_t n = inst.graph.num_nodes();
    Rng rng(99);
    const FaultSet faults(n, inject_uniform(n, family.delta, rng));
    const Syndrome syndrome =
        generate_syndrome(inst.graph, faults, FaultyBehavior::kRandom, 7);
    const TableOracle table(inst.graph, syndrome);
    Node seed = 0;
    while (faults.is_faulty(seed)) ++seed;

    for (const ParentRule rule : kAllParentRules) {
      SCOPED_TRACE(to_string(rule));
      SetBuilder builder(inst.graph, rule);

      table.reset_lookups();
      const auto expected = reference_set_builder(inst.graph, rule, table,
                                                  seed, family.delta);
      const std::uint64_t expected_lookups = table.lookups();

      table.reset_lookups();
      const auto actual = builder.run(table, seed, family.delta);
      EXPECT_EQ(expected.all_healthy, actual.all_healthy);
      EXPECT_EQ(expected.rounds, actual.rounds);
      EXPECT_EQ(expected.contributors, actual.contributors);
      EXPECT_EQ(expected.members, actual.members);
      EXPECT_EQ(expected.parent, actual.parent);
      EXPECT_EQ(expected_lookups, table.lookups());
      std::vector<bool> member(n, false);
      for (const Node v : expected.members) member[v] = true;
      for (Node v = 0; v < n; ++v) {
        EXPECT_EQ(builder.in_last_set(v), member[v]) << "node " << v;
      }
    }

    // Restricted runs over every component of the finest certifiable plan.
    CertifiedPartition partition;
    try {
      partition = find_certified_partition(*inst.topo, inst.graph,
                                           family.delta, ParentRule::kSpread);
    } catch (const DiagnosisUnsupportedError&) {
      continue;  // no certifiable plan at this bound — unrestricted covered
    }
    const PartitionPlan& plan = *partition.plan;
    SetBuilder builder(inst.graph, ParentRule::kSpread);
    for (std::uint32_t c = 0;
         c < std::min<std::size_t>(plan.num_components(), 4); ++c) {
      table.reset_lookups();
      const auto expected =
          reference_set_builder(inst.graph, ParentRule::kSpread, table,
                                plan.seed_of(c), family.delta, &plan, c);
      const std::uint64_t expected_lookups = table.lookups();
      table.reset_lookups();
      const auto actual = builder.run_restricted(
          table, plan.seed_of(c), family.delta, plan, c);
      EXPECT_EQ(expected.members, actual.members) << "component " << c;
      EXPECT_EQ(expected.parent, actual.parent) << "component " << c;
      EXPECT_EQ(expected.contributors, actual.contributors);
      EXPECT_EQ(expected_lookups, table.lookups()) << "component " << c;
    }
  }
}

/// Deterministic per-lane workload for a cohort: fault counts cycle over
/// 0..delta, all four faulty behaviours, seeded per lane.
std::vector<Syndrome> make_cohort_syndromes(const Graph& graph, unsigned delta,
                                            std::size_t width) {
  constexpr FaultyBehavior kBehaviors[] = {
      FaultyBehavior::kRandom, FaultyBehavior::kAllZero,
      FaultyBehavior::kAllOne, FaultyBehavior::kAntiDiagnostic};
  std::vector<Syndrome> syndromes;
  syndromes.reserve(width);
  const std::size_t n = graph.num_nodes();
  for (std::size_t lane = 0; lane < width; ++lane) {
    Rng rng(0xC0407 + lane * 0x9E3779B97F4A7C15ULL);
    const FaultSet faults(
        n, inject_uniform(n, lane % (std::size_t{delta} + 1), rng));
    syndromes.push_back(
        generate_syndrome(graph, faults, kBehaviors[lane % 4], lane));
  }
  return syndromes;
}

/// Races diagnose_cohort against a scalar solve of each lane and demands
/// bit-identity on every reported field, look-up counts included.
void check_cohort_matches_scalar(Diagnoser& diagnoser, const Graph& graph,
                                 const std::vector<Syndrome>& syndromes,
                                 const std::string& tag) {
  std::vector<TableOracle> scalar_oracles, cohort_oracles;
  scalar_oracles.reserve(syndromes.size());
  cohort_oracles.reserve(syndromes.size());
  for (const Syndrome& s : syndromes) {
    scalar_oracles.emplace_back(graph, s);
    cohort_oracles.emplace_back(graph, s);
  }
  std::vector<DiagnosisResult> expected;
  for (const TableOracle& o : scalar_oracles) {
    expected.push_back(diagnoser.diagnose(o));
  }
  std::vector<const TableOracle*> lanes;
  for (const TableOracle& o : cohort_oracles) lanes.push_back(&o);
  const std::vector<DiagnosisResult> actual = diagnoser.diagnose_cohort(lanes);
  ASSERT_EQ(actual.size(), syndromes.size()) << tag;
  for (std::size_t lane = 0; lane < syndromes.size(); ++lane) {
    expect_bit_identical(expected[lane], actual[lane],
                         tag + "/lane=" + std::to_string(lane));
    // The cohort must also charge each lane's own oracle identically.
    EXPECT_EQ(scalar_oracles[lane].lookups(), cohort_oracles[lane].lookups())
        << tag << "/lane=" << lane;
  }
}

// The tentpole contract: a bitsliced lockstep cohort reports bit-identical
// diagnoses — faults, failure strings, probes AND per-syndrome look-up
// counts — for every registry family and all four parent rules, at widths
// on both sides of the 64-lane word (1, 2, 63, 64).
TEST(DispatchEquivalence, CohortMatchesScalarEveryFamilyEveryRule) {
  for (const FamilyCase& family : kEveryFamily) {
    SCOPED_TRACE(family.spec);
    test::Instance inst(family.spec);
    for (const ParentRule rule : kAllParentRules) {
      CertifiedPartition partition;
      try {
        partition = find_certified_partition(*inst.topo, inst.graph,
                                             family.delta, rule);
      } catch (const DiagnosisUnsupportedError&) {
        continue;
      }
      DiagnoserOptions options;
      options.rule = rule;
      Diagnoser diagnoser(inst.graph, partition, options);
      const std::string tag =
          std::string(family.spec) + "/" + to_string(rule);
      for (const std::size_t width :
           {std::size_t{1}, std::size_t{2}, std::size_t{63},
            std::size_t{64}}) {
        check_cohort_matches_scalar(
            diagnoser, inst.graph,
            make_cohort_syndromes(inst.graph, family.delta, width),
            tag + "/width=" + std::to_string(width));
      }
    }
  }
}

TEST(DispatchEquivalence, MixedCertifiableAndUncertifiableCohort) {
  // An all-one syndrome (every comparison reports a mismatch) can never
  // certify a component: its lane must carry the verbatim no-component
  // failure string without poisoning the healthy lanes around it.
  test::Instance inst("hypercube 6");
  const unsigned delta = 4;
  CertifiedPartition partition = find_certified_partition(
      *inst.topo, inst.graph, delta, ParentRule::kSpread);
  Diagnoser diagnoser(inst.graph, partition, DiagnoserOptions{});

  std::vector<Syndrome> syndromes =
      make_cohort_syndromes(inst.graph, delta, 64);
  Syndrome all_one(inst.graph);
  for (Node u = 0; u < inst.graph.num_nodes(); ++u) {
    const auto deg = inst.graph.degree(u);
    for (unsigned i = 0; i + 1 < deg; ++i) {
      for (unsigned j = i + 1; j < deg; ++j) {
        all_one.set_test(u, i, j, true);
      }
    }
  }
  syndromes[5] = all_one;
  syndromes[62] = all_one;
  check_cohort_matches_scalar(diagnoser, inst.graph, syndromes,
                              "hypercube 6/mixed-uncertifiable");

  const TableOracle bad(inst.graph, all_one);
  const DiagnosisResult res = diagnoser.diagnose(bad);
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.failure_reason.find("no component certified"),
            std::string::npos)
      << res.failure_reason;
}

TEST(DispatchEquivalence, CohortRejectsBadWidthsAndNullLanes) {
  test::Instance inst("hypercube 5");
  CertifiedPartition partition = find_certified_partition(
      *inst.topo, inst.graph, 3, ParentRule::kSpread);
  Diagnoser diagnoser(inst.graph, partition, DiagnoserOptions{});

  EXPECT_THROW((void)diagnoser.diagnose_cohort({}), std::invalid_argument);

  const std::vector<Syndrome> syndromes =
      make_cohort_syndromes(inst.graph, 3, 65);
  std::vector<TableOracle> oracles;
  for (const Syndrome& s : syndromes) oracles.emplace_back(inst.graph, s);
  std::vector<const TableOracle*> too_wide;
  for (const TableOracle& o : oracles) too_wide.push_back(&o);
  EXPECT_THROW((void)diagnoser.diagnose_cohort(too_wide),
               std::invalid_argument);

  std::vector<const TableOracle*> with_null = {&oracles[0], nullptr};
  EXPECT_THROW((void)diagnoser.diagnose_cohort(with_null),
               std::invalid_argument);
}

// The persistent transposed-row cache: a repeated (u, pivot) transpose must
// serve the stored block (hits counted, contents bit-identical to a fresh
// gather+transpose), cached_row must answer only for current entries, the
// cache must survive reset_accounting (that is the probe→final reuse), and
// widening the cohort must invalidate it. Result/look-up identity with the
// cache active is asserted by every cohort test above — the cache changes
// which words are touched, never their content.
TEST(DispatchEquivalence, TransposedRowCacheServesIdenticalBlocks) {
  test::Instance inst("hypercube 6");
  const std::vector<Syndrome> syndromes =
      make_cohort_syndromes(inst.graph, 4, 9);
  std::vector<TableOracle> oracles;
  for (const Syndrome& s : syndromes) oracles.emplace_back(inst.graph, s);

  BitSlicedOracle sliced(inst.graph);
  for (std::size_t lane = 0; lane + 1 < oracles.size(); ++lane) {
    sliced.add_lane(oracles[lane]);
  }
  const unsigned width = sliced.width();
  const Node u = 3;
  const unsigned pivot = 1;

  EXPECT_EQ(sliced.cached_row(u, pivot), nullptr) << "cold cache";
  const std::uint64_t* first = sliced.transposed_row(u, pivot);
  EXPECT_EQ(sliced.row_cache_hits(), 0u) << "first transpose is a miss";
  std::vector<std::uint64_t> snapshot(first, first + BitSlicedOracle::kMaxLanes);
  for (unsigned p = 0; p < inst.graph.degree(u); ++p) {
    for (unsigned lane = 0; lane < width; ++lane) {
      EXPECT_EQ((snapshot[p] >> lane) & 1,
                (syndromes[lane].row_bits(u, pivot) >> p) & 1)
          << "p=" << p << " lane=" << lane;
    }
  }

  const std::uint64_t* again = sliced.transposed_row(u, pivot);
  EXPECT_EQ(sliced.row_cache_hits(), 1u);
  EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(), again));

  sliced.reset_accounting();  // probes reset charges; rows must survive
  const std::uint64_t* cached = sliced.cached_row(u, pivot);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(sliced.row_cache_hits(), 2u);
  EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(), cached));
  EXPECT_EQ(sliced.cached_row(u, pivot + 1), nullptr) << "different pivot";

  // Widening the cohort changes what a block means: everything invalidates.
  sliced.add_lane(oracles.back());
  EXPECT_EQ(sliced.cached_row(u, pivot), nullptr) << "stale after add_lane";
}

// The word-row view must agree with the per-pair view bit for bit, and the
// mirror table must agree with the binary search it replaces.
TEST(DispatchEquivalence, WordRowsAndMirrorPositionsMatchScalarQueries) {
  for (const char* spec : {"hypercube 5", "star 5", "pancake 4"}) {
    SCOPED_TRACE(spec);
    test::Instance inst(spec);
    const std::size_t n = inst.graph.num_nodes();
    Rng rng(3);
    const FaultSet faults(n, inject_uniform(n, 3, rng));
    const Syndrome syndrome =
        generate_syndrome(inst.graph, faults, FaultyBehavior::kAllOne, 5);
    for (Node u = 0; u < n; ++u) {
      const auto adj = inst.graph.neighbors(u);
      for (unsigned i = 0; i < adj.size(); ++i) {
        const std::uint64_t row = syndrome.row_bits(u, i);
        EXPECT_FALSE((row >> i) & 1) << "diagonal bit set at u=" << u;
        for (unsigned j = 0; j < adj.size(); ++j) {
          if (i == j) continue;
          EXPECT_EQ(bool((row >> j) & 1), syndrome.test(u, i, j))
              << "u=" << u << " i=" << i << " j=" << j;
        }
        EXPECT_EQ(static_cast<int>(inst.graph.mirror_position(u, i)),
                  inst.graph.neighbor_position(adj[i], u))
            << "u=" << u << " p=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace mmdiag
