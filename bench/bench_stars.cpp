// E5/E6 (Theorems 5 & 6): (n,k)-stars in O(n!·n/(n-k)!), star graphs as
// S_{n,n-1}, pancake graphs in O(n!·n). On star graphs we additionally run
// the Chiang-Tan baseline (the family their paper illustrates) — expected
// shape: comparable times, ours with far fewer syndrome look-ups.
#include "baselines/chiang_tan.hpp"
#include "bench_main.hpp"
#include "topology/star_graph.hpp"

namespace mmdiag::bench {
namespace {

struct Config {
  const char* spec;
  double work;  // the theorem's bound up to constants: N * degree-ish
};

double theorem_work(const std::string& spec) {
  const auto& inst = instance(spec);
  return static_cast<double>(inst.graph.num_nodes()) *
         inst.topo->info().degree;
}

void add_row(const std::string& name, const std::string& algorithm,
             std::uint64_t nodes, unsigned delta, double spo, double norm,
             const DiagnosisResult& result) {
  ExperimentTable::get().add_row(
      {name, algorithm, Table::num(nodes), Table::num(delta),
       Table::num(spo * 1e3, 3), Table::num(norm, 3),
       Table::num(result.lookups), result.success ? "yes" : "NO"});
}

void BM_Ours(benchmark::State& state, const std::string& spec) {
  const auto& inst = instance(spec);
  Diagnoser* diag = nullptr;
  try {
    diag = &diagnoser(spec);
  } catch (const DiagnosisUnsupportedError& e) {
    state.SkipWithError(e.what());
    return;
  }
  const unsigned delta = diag->delta();
  const FaultSet faults = make_faults(spec, delta);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 29);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = diag->diagnose(oracle);
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  state.counters["N"] = static_cast<double>(inst.graph.num_nodes());
  state.counters["t_norm_ns"] = spo * 1e9 / theorem_work(spec);
  add_row(inst.topo->info().name, "set_builder (ours)",
          inst.graph.num_nodes(), delta, spo, spo * 1e9 / theorem_work(spec),
          result);
}

void BM_ChiangTanStar(benchmark::State& state, unsigned n) {
  const std::string spec = "star " + std::to_string(n);
  const auto& inst = instance(spec);
  const StarGraph topo(n);
  const auto ct = ChiangTanDiagnoser::for_star_graph(topo, inst.graph);
  const FaultSet faults = make_faults(spec, n - 1);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 29);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = ct.diagnose(oracle);
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  add_row(inst.topo->info().name, "chiang_tan", inst.graph.num_nodes(), n - 1,
          spo, spo * 1e9 / theorem_work(spec), result);
}

void register_all() {
  ExperimentTable::get().init(
      "E5+E6 / Theorems 5-6 — (n,k)-stars, stars, pancakes, |F| = delta",
      {"instance", "algorithm", "N", "delta", "time_ms", "ns_per_dN",
       "lookups", "success"});
  for (const char* spec :
       {"nk_star 6 3", "nk_star 7 4", "nk_star 8 5", "nk_star 9 4",
        "star 6", "star 7", "star 8", "pancake 6", "pancake 7", "pancake 8"}) {
    std::string name = spec;
    for (auto& c : name) {
      if (c == ' ') c = '_';
    }
    benchmark::RegisterBenchmark(name.c_str(), BM_Ours, std::string(spec))
        ->Unit(benchmark::kMillisecond);
  }
  for (const unsigned n : {6u, 7u, 8u}) {
    benchmark::RegisterBenchmark(
        ("chiang_tan/star_" + std::to_string(n)).c_str(), BM_ChiangTanStar, n)
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mmdiag::bench

MMDIAG_BENCH_MAIN()
