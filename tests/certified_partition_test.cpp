// Runtime calibration of partition plans (DESIGN.md §4.1/§4.2).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/certified_partition.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace mmdiag {
namespace {

TEST(CertifiedPartition, HypercubeQ7Certifies) {
  test::Instance inst("hypercube 7");
  const auto cp = find_certified_partition(*inst.topo, inst.graph, 7,
                                           ParentRule::kSpread, true);
  EXPECT_GE(cp.plan->num_components(), 8u);
  EXPECT_TRUE(cp.fully_validated);
  EXPECT_EQ(cp.delta, 7u);
  // Every component individually certifies.
  for (std::uint32_t c = 0; c < cp.plan->num_components(); ++c) {
    EXPECT_TRUE(component_certifies(inst.graph, *cp.plan, c, 7,
                                    ParentRule::kSpread));
  }
}

// The ablation behind DESIGN.md §4.2: under the paper's least-first rule a
// fault-free Q_4 component yields exactly 8 contributors, which cannot
// exceed delta = 8, and no coarser plan leaves 9 components — so Q_8 is
// un-certifiable under the paper's rule but fine under the spread rule.
TEST(CertifiedPartition, SpreadRuleRescuesQ8) {
  test::Instance inst("hypercube 8");
  EXPECT_THROW((void)find_certified_partition(*inst.topo, inst.graph, 8,
                                        ParentRule::kLeastFirst, true),
               DiagnosisUnsupportedError);
  const auto cp = find_certified_partition(*inst.topo, inst.graph, 8,
                                           ParentRule::kSpread, true);
  EXPECT_GE(cp.plan->num_components(), 9u);
}

TEST(CertifiedPartition, FinerPlansPreferred) {
  test::Instance inst("hypercube 10");
  const auto tight = find_certified_partition(*inst.topo, inst.graph, 10,
                                              ParentRule::kSpread, true);
  const auto loose = find_certified_partition(*inst.topo, inst.graph, 5,
                                              ParentRule::kSpread, true);
  // A smaller fault bound admits components no larger than a bigger bound's.
  EXPECT_LE(loose.plan->component_size(), tight.plan->component_size());
}

TEST(CertifiedPartition, CliqueComponentsNeverCertify) {
  // S_{n,2} components are cliques K_{n-1}: a Set_Builder tree in a clique
  // has exactly one internal node, so certification is impossible
  // (DESIGN.md §4.3, correcting the paper's Theorem 5 for k = 2).
  test::Instance inst("nk_star 6 2");
  EXPECT_THROW((void)find_certified_partition(*inst.topo, inst.graph,
                                        inst.topo->default_fault_bound(),
                                        ParentRule::kSpread, true),
               DiagnosisUnsupportedError);
}

TEST(CertifiedPartition, ArrangementK2Unsupported) {
  test::Instance inst("arrangement 6 2");
  EXPECT_THROW((void)find_certified_partition(*inst.topo, inst.graph,
                                        inst.topo->default_fault_bound(),
                                        ParentRule::kSpread, true),
               DiagnosisUnsupportedError);
}

TEST(CertifiedPartition, ErrorMessageExplainsRejections) {
  test::Instance inst("nk_star 6 2");
  try {
    (void)find_certified_partition(*inst.topo, inst.graph, 5,
                                   ParentRule::kSpread, true);
    FAIL() << "expected DiagnosisUnsupportedError";
  } catch (const DiagnosisUnsupportedError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("S(6,2)"), std::string::npos);
    EXPECT_NE(what.find("fault bound 5"), std::string::npos);
  }
}

TEST(CertifiedPartition, DeltaZeroTrivial) {
  test::Instance inst("hypercube 5");
  const auto cp = find_certified_partition(*inst.topo, inst.graph, 0,
                                           ParentRule::kSpread, true);
  EXPECT_GE(cp.plan->num_components(), 1u);
}

TEST(ComponentCertifies, MatchesFullSearchDecision) {
  test::Instance inst("star 5");
  const auto plans = inst.topo->partition_plans();
  ASSERT_EQ(plans.size(), 1u);
  const unsigned delta = inst.topo->default_fault_bound();
  bool all = true;
  for (std::uint32_t c = 0; c < plans[0]->num_components(); ++c) {
    all = all && component_certifies(inst.graph, *plans[0], c, delta,
                                     ParentRule::kSpread);
  }
  if (all) {
    EXPECT_NO_THROW((void)find_certified_partition(*inst.topo, inst.graph, delta,
                                             ParentRule::kSpread, true));
  } else {
    EXPECT_THROW((void)find_certified_partition(*inst.topo, inst.graph, delta,
                                          ParentRule::kSpread, true),
                 DiagnosisUnsupportedError);
  }
}

// Everything a calibration decides: the accepted plan and its bookkeeping,
// or the rejection message when no plan certifies.
struct Calibrated {
  std::string plan;
  unsigned delta = 0;
  ParentRule rule = ParentRule::kSpread;
  std::uint64_t lookups = 0;
  bool fully_validated = false;
  std::string error;

  bool operator==(const Calibrated&) const = default;
};

Calibrated calibrate(const Topology& topo, const Graph& graph, unsigned delta,
                     ParentRule rule, bool validate_all, ThreadPool* pool) {
  Calibrated out;
  try {
    const CertifiedPartition cp = find_certified_partition(
        topo, graph, delta, rule, validate_all, pool);
    out.plan = cp.plan->description();
    out.delta = cp.delta;
    out.rule = cp.rule;
    out.lookups = cp.calibration_lookups;
    out.fully_validated = cp.fully_validated;
  } catch (const DiagnosisUnsupportedError& e) {
    out.error = e.what();
  }
  return out;
}

// The probes of a plan run on the pool's lanes, but the fold is serial:
// plan, delta, rule, look-ups, fully_validated and every rejection message
// must be what the one-lane walk gives. The extra cases reject plans: Q8
// under least-first, and two families whose components are cliques.
TEST(CertifiedPartition, IdenticalAtEveryLaneCount) {
  struct Case {
    const char* spec;
    unsigned delta;
  };
  const Case cases[] = {
      {"hypercube 5", 3},          {"crossed_cube 5", 3},
      {"twisted_cube 5", 3},       {"folded_hypercube 5", 3},
      {"enhanced_hypercube 5 2", 3}, {"augmented_cube 6", 3},
      {"shuffle_cube 6", 3},       {"twisted_n_cube 5", 3},
      {"kary_ncube 2 6", 3},       {"augmented_kary_ncube 3 4", 3},
      {"star 4", 3},               {"nk_star 5 3", 4},
      {"pancake 4", 3},            {"arrangement 5 3", 4},
      {"hypercube 8", 8},          {"arrangement 6 2", 5},
      {"nk_star 6 2", 5},
  };
  ThreadPool one(1), two(2), four(4);
  ThreadPool* const pools[] = {&one, &two, &four};
  std::size_t rejected = 0;
  for (const Case& c : cases) {
    test::Instance inst(c.spec);
    for (const ParentRule rule :
         {ParentRule::kSpread, ParentRule::kLeastFirst}) {
      for (const bool validate_all : {true, false}) {
        SCOPED_TRACE(std::string(c.spec) + " " + to_string(rule) +
                     (validate_all ? " all" : " component0"));
        const Calibrated serial = calibrate(*inst.topo, inst.graph, c.delta,
                                            rule, validate_all, nullptr);
        rejected += serial.error.empty() ? 0 : 1;
        for (ThreadPool* pool : pools) {
          SCOPED_TRACE(pool->size());
          EXPECT_EQ(calibrate(*inst.topo, inst.graph, c.delta, rule,
                              validate_all, pool),
                    serial);
        }
      }
    }
  }
  EXPECT_GE(rejected, 2u * 2u * 2u + 2u);  // clique families + Q8 least-first
}

// Q8 with every edge inside nodes [176, 192) cut: component 11 of the
// 16-node plan cannot cover itself, while the 32-node plan's component 5
// still connects through dimension 4. The walk must reject the finer plan
// after probing components 0..11 and charge exactly those look-ups, as the
// serial loop does, however the components are spread over lanes.
class CutHypercube final : public Topology {
 public:
  [[nodiscard]] TopologyInfo info() const override {
    TopologyInfo t = base_->info();
    t.name = "cut-Q8";
    return t;
  }
  void neighbors(Node u, std::vector<Node>& out) const override {
    base_->neighbors(u, out);
    if (cut(u)) std::erase_if(out, [](Node v) { return cut(v); });
  }
  [[nodiscard]] std::string node_label(Node u) const override {
    return base_->node_label(u);
  }
  [[nodiscard]] std::vector<std::shared_ptr<const PartitionPlan>>
  partition_plans() const override {
    return {std::make_shared<PrefixBitsPlan>(8, 4),
            std::make_shared<PrefixBitsPlan>(8, 5)};
  }
  [[nodiscard]] std::vector<unsigned> params() const override { return {8}; }

 private:
  static bool cut(Node v) { return v >= 176 && v < 192; }
  std::unique_ptr<Topology> base_ = make_topology_from_spec("hypercube 8");
};

TEST(CertifiedPartition, FailureInALaterWaveFoldsLikeTheSerialLoop) {
  const CutHypercube topo;
  const Graph graph = topo.build_graph();
  constexpr unsigned kDelta = 3;
  const auto plans = topo.partition_plans();
  // The serial loop, spelled out: probe in order, stop after a failure.
  std::uint64_t expected_lookups = 0;
  std::optional<std::size_t> first_failure[2];
  for (std::size_t p = 0; p < plans.size(); ++p) {
    SetBuilder builder(graph, ParentRule::kSpread);
    const FaultFreeOracle oracle;
    for (std::uint32_t c = 0; c < plans[p]->num_components(); ++c) {
      const auto r = builder.run_restricted(oracle, plans[p]->seed_of(c),
                                            kDelta, *plans[p], c);
      if (!r.all_healthy || r.members.size() != plans[p]->component_size()) {
        first_failure[p] = c;
        break;
      }
    }
    expected_lookups += oracle.lookups();
  }
  ASSERT_EQ(first_failure[0], std::optional<std::size_t>{11});
  ASSERT_FALSE(first_failure[1].has_value());

  ThreadPool one(1), two(2), four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &two,
                           &four}) {
    const Calibrated got = calibrate(topo, graph, kDelta, ParentRule::kSpread,
                                     true, pool);
    EXPECT_EQ(got.error, "") << (pool ? pool->size() : 0);
    EXPECT_EQ(got.plan, plans[1]->description());
    EXPECT_EQ(got.lookups, expected_lookups) << (pool ? pool->size() : 0);
  }
}

}  // namespace
}  // namespace mmdiag
