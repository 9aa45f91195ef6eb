// E7 (Theorem 7): arrangement graphs A_{n,k} — diagnosis of up to n-1
// faults (the theorem's bound; the split yields only n components) in
// O(n!·k(n-k)/(n-k)!).
#include "bench_main.hpp"

namespace mmdiag::bench {
namespace {

void BM_Arrangement(benchmark::State& state, const std::string& spec) {
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
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 31);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = diag->diagnose(oracle);
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  const double work = static_cast<double>(inst.graph.num_nodes()) *
                      inst.topo->info().degree;
  state.counters["N"] = static_cast<double>(inst.graph.num_nodes());
  state.counters["t_norm_ns"] = spo * 1e9 / work;
  ExperimentTable::get().add_row(
      {inst.topo->info().name, Table::num(inst.graph.num_nodes()),
       Table::num(inst.topo->info().degree), Table::num(delta),
       Table::num(spo * 1e3, 3), Table::num(spo * 1e9 / work, 3),
       Table::num(result.lookups), result.success ? "yes" : "NO"});
}

void register_all() {
  ExperimentTable::get().init(
      "E7 / Theorem 7 — arrangement graphs, |F| = n-1 (theorem bound)",
      {"instance", "N", "degree", "delta", "time_ms", "ns_per_dN", "lookups",
       "success"});
  for (const char* spec : {"arrangement 6 3", "arrangement 7 3",
                           "arrangement 7 4", "arrangement 8 3",
                           "arrangement 9 4", "arrangement 10 4"}) {
    std::string name = spec;
    for (auto& c : name) {
      if (c == ' ') c = '_';
    }
    benchmark::RegisterBenchmark(name.c_str(), BM_Arrangement,
                                 std::string(spec))
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mmdiag::bench

MMDIAG_BENCH_MAIN()
