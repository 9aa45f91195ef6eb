// E12: ablations of the design choices called out in DESIGN.md §4.
//
//  (a) Parent rule — the paper's least-first vs our spread rule: certified
//      contributor counts on a fault-free Q_4 component, whether each rule
//      can support Q_n at all, and diagnosis time where both apply.
//  (b) Component granularity — diagnosing Q_12 with every certifiable
//      component size m: probes get cheaper as components shrink, until
//      certification fails.
#include "bench_main.hpp"
#include "core/certified_partition.hpp"
#include "core/set_builder.hpp"

namespace mmdiag::bench {
namespace {

// Manual driver over an explicit plan (bypasses the certified search).
DiagnosisResult manual_diagnose(const Graph& graph, const PartitionPlan& plan,
                                unsigned delta, const SyndromeOracle& oracle,
                                ParentRule rule) {
  oracle.reset_lookups();
  DiagnosisResult out;
  SetBuilder builder(graph, rule);
  const std::size_t max_probes =
      std::min<std::size_t>(plan.num_components(), std::size_t{delta} + 1);
  bool found = false;
  std::size_t winner = 0;
  for (std::size_t c = 0; c < max_probes && !found; ++c) {
    ++out.probes;
    const auto probe = builder.run_restricted(
        oracle, plan.seed_of(c), delta, plan, static_cast<std::uint32_t>(c));
    if (probe.all_healthy) {
      found = true;
      winner = c;
    }
  }
  if (!found) {
    out.failure_reason = "no certificate";
    return out;
  }
  const auto full = builder.run(oracle, plan.seed_of(winner), delta);
  out.final_members = full.members.size();
  StampSet seen(graph.num_nodes());
  for (const Node u : full.members) {
    for (const Node v : graph.neighbors(u)) {
      if (!builder.in_last_set(v) && seen.insert(v)) out.faults.push_back(v);
    }
  }
  std::sort(out.faults.begin(), out.faults.end());
  out.lookups = oracle.lookups();
  out.success = out.faults.size() <= delta;
  return out;
}

// (a) Parent-rule ablation: both phases forced to the same rule so the
// trade-off (certification power vs look-up economy) is isolated.
void BM_ParentRule(benchmark::State& state, ParentRule rule) {
  const std::string spec = "hypercube 12";
  const auto& inst = instance(spec);
  DiagnoserOptions rule_options;
  rule_options.rule = rule;
  rule_options.final_rule = rule;
  Diagnoser diag(*inst.topo, inst.graph, rule_options);
  const FaultSet faults = make_faults(spec, 12);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 3);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = diag.diagnose(oracle);
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  // Can this rule support Q_8 at all? (least-first cannot: DESIGN.md §4.2)
  const auto& q8 = instance("hypercube 8");
  bool supports_q8 = true;
  try {
    (void)find_certified_partition(*q8.topo, q8.graph, 8, rule, true);
  } catch (const DiagnosisUnsupportedError&) {
    supports_q8 = false;
  }
  ExperimentTable::get().add_row(
      {"parent-rule", to_string(rule),
       "comp=" + Table::num(diag.partition().plan->component_size()),
       Table::num(spo * 1e3, 3), Table::num(result.lookups),
       supports_q8 ? "supports Q8" : "CANNOT certify Q8",
       result.success ? "yes" : "NO"});
}

// (b) Component-granularity ablation on Q_12.
void BM_Granularity(benchmark::State& state, unsigned suffix_bits) {
  const std::string spec = "hypercube 12";
  const auto& inst = instance(spec);
  const PrefixBitsPlan plan(12, suffix_bits);
  const unsigned delta = 12;
  // Reject sizes that cannot certify (matching the certified search).
  if (plan.num_components() < delta + 1 ||
      !component_certifies(inst.graph, plan, 0, delta, ParentRule::kSpread)) {
    state.SkipWithError("plan does not certify delta=12");
    return;
  }
  const FaultSet faults = make_faults(spec, delta);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 9);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = manual_diagnose(inst.graph, plan, delta, oracle,
                             ParentRule::kSpread);
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  ExperimentTable::get().add_row(
      {"granularity", "m=" + Table::num(suffix_bits),
       "comp=" + Table::num(plan.component_size()), Table::num(spo * 1e3, 3),
       Table::num(result.lookups), "probes=" + Table::num(result.probes),
       result.success ? "yes" : "NO"});
}

void register_all() {
  ExperimentTable::get().init(
      "E12 — ablations on Q_12 (|F| = 12): parent rule, component "
      "granularity",
      {"ablation", "variant", "config", "time_ms", "lookups", "note",
       "success"});
  benchmark::RegisterBenchmark("parent_rule/least_first", BM_ParentRule,
                               ParentRule::kLeastFirst)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("parent_rule/spread", BM_ParentRule,
                               ParentRule::kSpread)
      ->Unit(benchmark::kMillisecond);
  for (const unsigned m : {4u, 5u, 6u, 7u, 8u}) {
    benchmark::RegisterBenchmark(
        ("granularity/m" + std::to_string(m)).c_str(), BM_Granularity, m)
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mmdiag::bench

MMDIAG_BENCH_MAIN()
