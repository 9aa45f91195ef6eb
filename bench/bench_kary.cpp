// E4 (Theorem 4): k-ary n-cubes diagnose |F| <= 2n faults in O(n·k^n);
// augmented k-ary n-cubes (as their spanning supergraphs) handle |F| <= 4n-2
// with the same driver. The normalised constant time/(n·k^n) should stay
// flat along each family.
#include "bench_main.hpp"

namespace mmdiag::bench {
namespace {

struct Config {
  const char* spec;
  unsigned n;
};

constexpr Config kConfigs[] = {
    {"kary_ncube 2 7", 2},   {"kary_ncube 2 15", 2},
    {"kary_ncube 3 9", 3},   {"kary_ncube 3 13", 3},
    {"kary_ncube 4 7", 4},   {"augmented_kary_ncube 2 9", 2},
    {"augmented_kary_ncube 2 15", 2}, {"augmented_kary_ncube 3 11", 3},
};

void BM_KAry(benchmark::State& state, const Config& config) {
  const auto& inst = instance(config.spec);
  Diagnoser* diag = nullptr;
  try {
    diag = &diagnoser(config.spec);
  } catch (const DiagnosisUnsupportedError& e) {
    state.SkipWithError(e.what());
    return;
  }
  const unsigned delta = diag->delta();
  const FaultSet faults = make_faults(config.spec, delta);
  const LazyOracle oracle(inst.graph, faults, FaultyBehavior::kRandom, 23);
  DiagnosisResult result;
  Timer timer;
  for (auto _ : state) {
    result = diag->diagnose(oracle);
    benchmark::DoNotOptimize(result);
  }
  const double spo =
      state.iterations() ? timer.seconds() / static_cast<double>(state.iterations()) : 0;
  const double nodes = static_cast<double>(inst.graph.num_nodes());
  state.counters["N"] = nodes;
  state.counters["delta"] = delta;
  state.counters["t_norm_ns"] = spo * 1e9 / (config.n * nodes);
  ExperimentTable::get().add_row(
      {inst.topo->info().name, Table::num(std::uint64_t(nodes)),
       Table::num(delta), Table::num(spo * 1e3, 3),
       Table::num(spo * 1e9 / (config.n * nodes), 3),
       Table::num(result.lookups), result.success ? "yes" : "NO"});
}

void register_all() {
  ExperimentTable::get().init(
      "E4 / Theorem 4 — k-ary n-cubes and augmented k-ary n-cubes, |F| = "
      "delta",
      {"instance", "N", "delta", "time_ms", "ns_per_nN", "lookups",
       "success"});
  for (const auto& config : kConfigs) {
    std::string name = config.spec;
    for (auto& c : name) {
      if (c == ' ') c = '_';
    }
    benchmark::RegisterBenchmark(name.c_str(), BM_KAry, config)
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (register_all(), 0);

}  // namespace
}  // namespace mmdiag::bench

MMDIAG_BENCH_MAIN()
