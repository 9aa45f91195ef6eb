// E13 (ours): price of exactness without structure. The DPLL exact solver
// needs no partition, no connectivity assumption and no diagnosability
// theory — it just searches — but its cost grows super-linearly while the
// paper's driver stays O(Δ·N). This bench quantifies the gap and shows why
// the structural theory earns its keep even though propagation makes the
// solver far faster than naive enumeration.
#include "baselines/exact_solver.hpp"
#include "bench_main.hpp"

namespace mmdiag::bench {
namespace {

void BM_Exact(benchmark::State& state, const std::string& spec) {
  const auto& inst = instance(spec);
  const unsigned delta = inst.topo->info().diagnosability;
  const FaultSet faults = make_faults(spec, delta);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 51);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    ExactSolver solver(inst.graph, oracle, delta);
    result = solver.diagnose();
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  ExperimentTable::get().add_row(
      {inst.topo->info().name, "exact_dpll",
       Table::num(inst.graph.num_nodes()), Table::num(delta),
       Table::num(spo * 1e3, 3), Table::num(result.lookups),
       result.success ? "yes" : "NO"});
}

void BM_Driver(benchmark::State& state, const std::string& spec) {
  const auto& inst = instance(spec);
  Diagnoser* diag = nullptr;
  try {
    diag = &diagnoser(spec);
  } catch (const DiagnosisUnsupportedError& e) {
    state.SkipWithError(e.what());
    return;
  }
  const FaultSet faults = make_faults(spec, diag->delta());
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 51);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = diag->diagnose(oracle);
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  ExperimentTable::get().add_row(
      {inst.topo->info().name, "set_builder (ours)",
       Table::num(inst.graph.num_nodes()), Table::num(diag->delta()),
       Table::num(spo * 1e3, 3), Table::num(result.lookups),
       result.success ? "yes" : "NO"});
}

void register_all() {
  ExperimentTable::get().init(
      "E13 — structure-free exact search (DPLL) vs the structural driver",
      {"instance", "algorithm", "N", "delta", "time_ms", "lookups",
       "success"});
  for (const char* spec :
       {"hypercube 7", "hypercube 9", "hypercube 11", "star 6", "star 7"}) {
    std::string name = spec;
    for (auto& c : name) {
      if (c == ' ') c = '_';
    }
    benchmark::RegisterBenchmark(("exact/" + name).c_str(), BM_Exact,
                                 std::string(spec))
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("driver/" + name).c_str(), BM_Driver,
                                 std::string(spec))
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mmdiag::bench

MMDIAG_BENCH_MAIN()
